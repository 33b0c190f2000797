package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"
)

// layerOf maps a span name to its layer: the part before the dot.
func layerOf(name string) string {
	l, _, _ := strings.Cut(name, ".")
	return l
}

// selfStat accumulates the self time of spans of one name.
type selfStat struct {
	n    int
	self time.Duration
}

func (s selfStat) meanUs() float64 { return ratio(us(s.self), float64(s.n)) }

// selfTimes is the traced run's self-time breakdown. A span's self time
// is its duration minus the part of it its child spans cover.
type selfTimes struct {
	byName map[string]*selfStat
	// root is the summed duration of every op's root span, the traced
	// end-to-end time; self is the summed self time of every span.
	root, self time.Duration
}

func computeSelf(ops [][]span) selfTimes {
	st := selfTimes{byName: map[string]*selfStat{}}
	add := func(name string, d time.Duration) {
		s := st.byName[name]
		if s == nil {
			s = &selfStat{}
			st.byName[name] = s
		}
		s.n++
		s.self += d
		st.self += d
	}
	for _, spans := range ops {
		if len(spans) == 0 {
			continue
		}
		root := spans[0]
		st.root += root.end.Sub(root.start)
		children := append([]span(nil), spans[1:]...)
		sort.Slice(children, func(i, j int) bool { return children[i].start.Before(children[j].start) })
		var covered time.Duration
		cur := root.start
		for _, c := range children {
			add(c.name, c.end.Sub(c.start))
			lo, hi := maxTime(c.start, cur), minTime(c.end, root.end)
			if hi.After(lo) {
				covered += hi.Sub(lo)
				cur = hi
			}
		}
		add(root.name, root.end.Sub(root.start)-covered)
	}
	return st
}

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

func minTime(a, b time.Time) time.Time {
	if a.Before(b) {
		return a
	}
	return b
}

// selfSumTolerance bounds |sum of self times - traced end-to-end time|
// as a share of the latter. Children that overlap or stick out of their
// root make the sum exceed the root time.
const selfSumTolerance = 0.001

// sumError is the self-time sum check's relative residual.
func (st selfTimes) sumError() float64 {
	return math.Abs(float64(st.self-st.root)) / math.Max(float64(st.root), 1)
}

// layerTotals sums self time per layer.
func (st selfTimes) layerTotals() map[string]time.Duration {
	out := map[string]time.Duration{}
	for name, s := range st.byName {
		out[layerOf(name)] += s.self
	}
	return out
}

// meanUs is the mean self time of the named spans, pooled.
func (st selfTimes) meanUs(names ...string) float64 {
	var agg selfStat
	for _, n := range names {
		if s := st.byName[n]; s != nil {
			agg.n += s.n
			agg.self += s.self
		}
	}
	return agg.meanUs()
}

// rootMeanUs is the mean self time of root (proxy) spans.
func (st selfTimes) rootMeanUs() float64 {
	var agg selfStat
	for name, s := range st.byName {
		if layerOf(name) == "proxy" {
			agg.n += s.n
			agg.self += s.self
		}
	}
	return agg.meanUs()
}

// writeTable prints the per-layer and per-span self-time table.
func (st selfTimes) writeTable(w io.Writer) {
	layers := st.layerTotals()
	names := make([]string, 0, len(layers))
	for l := range layers {
		names = append(names, l)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-28s %10s %12s %8s\n", "layer / span", "count", "self_ms", "share")
	for _, l := range names {
		fmt.Fprintf(w, "%-28s %10s %12.1f %7.1f%%\n", l, "", ms(layers[l]), 100*ratio(float64(layers[l]), float64(st.root)))
		spans := make([]string, 0)
		for n := range st.byName {
			if layerOf(n) == l {
				spans = append(spans, n)
			}
		}
		sort.Strings(spans)
		for _, n := range spans {
			s := st.byName[n]
			fmt.Fprintf(w, "  %-26s %10d %12.1f %7.1f%%  mean %.1f us\n", n, s.n, ms(s.self),
				100*ratio(float64(s.self), float64(st.root)), s.meanUs())
		}
	}
	fmt.Fprintf(w, "%-28s %10s %12.1f   self-time sum %.1f ms, residual %.2e (tolerance %.0e)\n",
		"end-to-end (root spans)", "", ms(st.root), ms(st.self), st.sumError(), selfSumTolerance)
}

// writeSpans writes one JSON object per span: the op id shared by the
// op's spans, the parent's name (empty for a root), and start and
// duration in microseconds from base.
func writeSpans(w io.Writer, ops [][]span, base time.Time) error {
	bw := bufio.NewWriter(w)
	for id, spans := range ops {
		for i, s := range spans {
			parent := ""
			if i > 0 {
				parent = spans[0].name
			}
			fmt.Fprintf(bw, `{"op":%d,"name":%q,"parent":%q,"start_us":%.1f,"dur_us":%.1f}`+"\n",
				id, s.name, parent, us(s.start.Sub(base)), us(s.end.Sub(s.start)))
		}
	}
	return bw.Flush()
}
