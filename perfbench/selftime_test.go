package main

import (
	"testing"
	"time"
)

func at(base time.Time, from, to int) (time.Time, time.Time) {
	return base.Add(time.Duration(from) * time.Millisecond), base.Add(time.Duration(to) * time.Millisecond)
}

func mkSpan(base time.Time, name string, from, to int) span {
	s, e := at(base, from, to)
	return span{name: name, start: s, end: e}
}

func TestSelfTimesSumToEndToEnd(t *testing.T) {
	b := time.Now()
	st := computeSelf([][]span{
		{mkSpan(b, "proxy.objstat", 0, 100), mkSpan(b, "indexnode.Lookup", 10, 30), mkSpan(b, "tafdb.StatObject", 40, 70)},
		{mkSpan(b, "proxy.lookup", 0, 10), mkSpan(b, "indexnode.Lookup", 2, 8)},
		nil, // an op that never ran
	})
	if st.root != 110*time.Millisecond {
		t.Fatalf("root total %v, want 110ms", st.root)
	}
	if e := st.sumError(); e > selfSumTolerance {
		t.Fatalf("self-time residual %g", e)
	}
	want := map[string]time.Duration{"proxy": 54 * time.Millisecond, "indexnode": 26 * time.Millisecond, "tafdb": 30 * time.Millisecond}
	for l, d := range st.layerTotals() {
		if d != want[l] {
			t.Errorf("layer %s self %v, want %v", l, d, want[l])
		}
	}
	if got := st.meanUs("indexnode.Lookup"); got != 13000 {
		t.Errorf("mean lookup self %g us, want 13000", got)
	}
}

// Overlapping children, or a child outside its root, break the sum.
func TestSelfTimeCheckCatchesBadSpans(t *testing.T) {
	b := time.Now()
	for name, spans := range map[string][]span{
		"overlap": {mkSpan(b, "proxy.create", 0, 100), mkSpan(b, "indexnode.Lookup", 10, 60), mkSpan(b, "tafdb.CreateObject", 50, 90)},
		"outside": {mkSpan(b, "proxy.create", 0, 100), mkSpan(b, "tafdb.CreateObject", 90, 120)},
	} {
		if e := computeSelf([][]span{spans}).sumError(); e <= selfSumTolerance {
			t.Errorf("%s: residual %g passed the check", name, e)
		}
	}
}
