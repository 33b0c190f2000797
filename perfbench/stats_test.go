package main

import (
	"math/rand"
	"testing"
)

func TestQuantileExactOnKnownSamples(t *testing.T) {
	var s samples
	for v := 1; v <= 1000; v++ {
		s = append(s, float64(v))
	}
	rand.New(rand.NewSource(1)).Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.001, 1}, {0.5, 500}, {0.9, 900}, {0.99, 990}, {0.999, 999}, {1, 1000},
	} {
		if got := s.quantile(c.q); got != c.want {
			t.Errorf("quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
	// Values closer together than any timer tick or 1% bucket stay apart.
	fine := samples{10.0001, 10.0002, 10.0003, 10.0004}
	if got := fine.quantile(0.5); got != 10.0002 {
		t.Errorf("fine quantile(0.5) = %g, want 10.0002", got)
	}
	if got := (samples{7}).quantile(0.99); got != 7 {
		t.Errorf("single-sample quantile = %g, want 7", got)
	}
	if got := (samples{}).quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %g, want 0", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %g, want 2", got)
	}
}

// A burst of slow samples inside one block sets the phase's plain p99
// but not the median of the block p99s.
func TestBlockQuantileResistsOneBurst(t *testing.T) {
	s := make(samples, 10*blockSize)
	for i := range s {
		s[i] = 10 + float64(i%100)/100 // 10.00 .. 10.99
	}
	for i := 3 * blockSize; i < 3*blockSize+150; i++ {
		s[i] = 100
	}
	if got := s.quantile(0.99); got != 100 {
		t.Fatalf("plain p99 = %g, want the burst's 100", got)
	}
	if got := s.blockQuantile(0.99); got != 10.98 {
		t.Errorf("block p99 = %g, want 10.98", got)
	}
	short := samples{1, 2, 3}
	if got := short.blockQuantile(0.5); got != 2 {
		t.Errorf("short block quantile = %g, want the plain 2", got)
	}
}
