package main

import (
	"math"
	"sort"
	"time"
)

// samples holds exact per-op values in arrival order; quantiles are
// taken from the values themselves, so they resolve finer than any timer
// or histogram bucket.
type samples []float64

func (s *samples) addMs(d time.Duration) { *s = append(*s, float64(d)/float64(time.Millisecond)) }

// quantile returns the nearest-rank q-quantile: the smallest sample with
// at least q of all samples at or below it.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	v := append(samples(nil), s...)
	sort.Float64s(v)
	// The epsilon keeps q*n that should be whole, such as 0.99*1000,
	// from rounding up past its rank.
	r := int(math.Ceil(q*float64(len(v)) - 1e-9))
	return v[min(max(r, 1), len(v))-1]
}

// blockSize is the sample count of one block in blockQuantile: a block's
// p99 has ten samples beyond it.
const blockSize = 1000

// blockQuantile splits the samples, in arrival order, into consecutive
// blocks of blockSize and returns the median of the blocks' q-quantiles.
// A host stall confined to a few blocks moves it little, where it can set
// the tail of the whole phase. With fewer than two blocks it is the plain
// quantile.
func (s samples) blockQuantile(q float64) float64 {
	if len(s) < 2*blockSize {
		return s.quantile(q)
	}
	var per []float64
	for i := 0; i+blockSize <= len(s); i += blockSize {
		per = append(per, s[i:i+blockSize].quantile(q))
	}
	return median(per)
}

// median of a few values (set-up repetitions, block quantiles).
func median(v []float64) float64 { return samples(v).quantile(0.5) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
