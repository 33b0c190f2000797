package main

import (
	"fmt"
	"sort"
	"time"

	"mantle/internal/core"
	"mantle/internal/types"
)

// opResult is the outcome of one op. lat runs from the unit's due time
// for a single-op unit and from the op's own start inside a task.
type opResult struct {
	ran bool
	lat time.Duration
	res types.Result
	err error
}

// phaseRun is one open-loop phase: its arrivals, their outcomes, and the
// layer snapshots around it.
type phaseRun struct {
	units         []unit
	off           []int // first op index of each unit
	ops           []opResult
	arr           []arrival
	peak          int64
	start         time.Time
	before, after snapshot
}

func (pr *phaseRun) results(i int) []opResult {
	return pr.ops[pr.off[i] : pr.off[i]+len(pr.units[i].ops)]
}

func (pr *phaseRun) opCount() int { return len(pr.ops) }

// settle is the pause before each phase, so that background work left by
// set-up or the previous phase does not run into the phase's first
// arrivals.
const settle = 200 * time.Millisecond

// runPhase runs units at rate through px on deployment m.
func runPhase(px proxy, m *core.Mantle, units []unit, rate float64) *phaseRun {
	pr := &phaseRun{units: units, off: make([]int, len(units))}
	n := 0
	for i, u := range units {
		pr.off[i] = n
		n += len(u.ops)
	}
	pr.ops = make([]opResult, n)
	time.Sleep(settle)
	pr.before = takeSnapshot(m)
	pr.start = time.Now()
	pr.arr, pr.peak = runOpenLoop(pr.start, rate, len(units), func(i int, due time.Time) {
		u := units[i]
		for j := range u.ops {
			t0 := time.Now()
			res, err := px.do(&u.ops[j], pr.off[i]+j)
			r := &pr.ops[pr.off[i]+j]
			r.ran, r.res, r.err = true, res, err
			if len(u.ops) == 1 {
				r.lat = time.Since(due)
			} else {
				r.lat = time.Since(t0)
			}
			if err != nil {
				return
			}
		}
	})
	pr.after = takeSnapshot(m)
	return pr
}

func (pr *phaseRun) unitFailed(i int) bool {
	for _, r := range pr.results(i) {
		if r.err != nil {
			return true
		}
	}
	return false
}

func (pr *phaseRun) failedUnits() int {
	n := 0
	for i := range pr.units {
		if pr.unitFailed(i) {
			n++
		}
	}
	return n
}

// unitLatencies are the latencies of the units that succeeded, from
// their due times, in arrival order.
func (pr *phaseRun) unitLatencies() samples {
	var s samples
	for i, a := range pr.arr {
		if !pr.unitFailed(i) {
			s.addMs(a.latency())
		}
	}
	return s
}

// classLatencies splits successful op latencies into reads and writes,
// in arrival order.
func (pr *phaseRun) classLatencies() (reads, writes samples) {
	for i, u := range pr.units {
		for j, r := range pr.results(i) {
			if !r.ran || r.err != nil {
				continue
			}
			if u.ops[j].kind.write() {
				writes.addMs(r.lat)
			} else {
				reads.addMs(r.lat)
			}
		}
	}
	return reads, writes
}

// sloMisses counts units that failed or exceeded their limit: the task
// limit for a task, its class limit for a single op.
func (pr *phaseRun) sloMisses(w *workload) int {
	n := 0
	for i, u := range pr.units {
		limit := w.taskLimit
		if len(u.ops) == 1 {
			limit = w.readLimit
			if u.ops[0].kind.write() {
				limit = w.writeLimit
			}
		}
		if pr.unitFailed(i) || pr.arr[i].latency() > limit {
			n++
		}
	}
	return n
}

// counts returns the ops and write ops that ran.
func (pr *phaseRun) counts() windowCounts {
	var c windowCounts
	for i, u := range pr.units {
		for j, r := range pr.results(i) {
			if r.ran {
				c.ops++
				if u.ops[j].kind.write() {
					c.writes++
				}
			}
		}
	}
	return c
}

// layerMetrics are the per-layer metrics of the phase that counters,
// histograms and op results give, without tracing.
func (pr *phaseRun) layerMetrics() map[string]float64 {
	c := pr.counts()
	out := ledger(pr.before, pr.after, c)

	var late samples
	for _, a := range pr.arr {
		late.addMs(a.late())
	}
	out["loadgen.late_p99_ms"] = late.quantile(0.99)
	out["loadgen.inflight_max"] = float64(pr.peak)

	var lat [numOpKinds]samples
	var phase [numOpKinds][types.NumPhases]time.Duration
	var rtts [2]struct{ n, trips int }
	var retries int
	for i, u := range pr.units {
		for j, r := range pr.results(i) {
			if !r.ran {
				continue
			}
			retries += r.res.Retries
			if r.err != nil {
				continue
			}
			k := u.ops[j].kind
			lat[k].addMs(r.lat)
			for ph, d := range r.res.Phases {
				phase[k][ph] += d
			}
			cls := 0
			if k.write() {
				cls = 1
			}
			rtts[cls].n++
			rtts[cls].trips += r.res.RTTs
		}
	}
	for k := opKind(0); k < numOpKinds; k++ {
		n := float64(len(lat[k]))
		p := "proxy." + k.String()
		out[p+".p50_ms"] = lat[k].quantile(0.5)
		out[p+".p99_ms"] = lat[k].quantile(0.99)
		out[p+".lookup_ms"] = ratio(ms(phase[k][types.PhaseLookup]), n)
		out[p+".execute_ms"] = ratio(ms(phase[k][types.PhaseExecute]), n)
	}
	out["proxy.dirrename.loopdetect_ms"] = ratio(ms(phase[opDirRename][types.PhaseLoopDetect]), float64(len(lat[opDirRename])))
	out["proxy.retries_per_op"] = ratio(float64(retries), float64(c.ops))
	out["netsim.rtts_per_op.read"] = ratio(float64(rtts[0].trips), float64(rtts[0].n))
	out["netsim.rtts_per_op.write"] = ratio(float64(rtts[1].trips), float64(rtts[1].n))
	var taskTrips, tasks int
	for i := range pr.units {
		if pr.unitFailed(i) {
			continue
		}
		tasks++
		for _, r := range pr.results(i) {
			taskTrips += r.res.RTTs
		}
	}
	out["netsim.rtts_per_op.task"] = ratio(float64(taskTrips), float64(tasks))
	return out
}

// endToEnd collects the end-to-end metrics with their sample counts.
type endToEnd struct {
	vals   map[string]float64
	counts map[string]int
}

func (e *endToEnd) set(name string, v float64, n int) {
	e.vals[name] = v
	e.counts[name] = n
}

func newEndToEnd(w *workload, lo, hi *phaseRun) *endToEnd {
	e := &endToEnd{vals: map[string]float64{}, counts: map[string]int{}}
	reads, writes := hi.classLatencies()
	tasks := hi.unitLatencies()
	e.set("read_p50_ms", reads.quantile(0.5), len(reads))
	e.set("read_p99_ms", reads.blockQuantile(0.99), len(reads))
	e.set("write_p50_ms", writes.quantile(0.5), len(writes))
	e.set("write_p99_ms", writes.blockQuantile(0.99), len(writes))
	e.set("task_p50_ms", tasks.quantile(0.5), len(tasks))
	e.set("task_p99_ms", tasks.blockQuantile(0.99), len(tasks))
	loReads, loWrites := lo.classLatencies()
	loTasks := lo.unitLatencies()
	e.set("read_p50_ms.lo", loReads.quantile(0.5), len(loReads))
	e.set("write_p50_ms.lo", loWrites.quantile(0.5), len(loWrites))
	e.set("task_p50_ms.lo", loTasks.quantile(0.5), len(loTasks))

	c := hi.counts()
	e.set("cpu_us_per_op", ratio(us(hi.after.cpu-hi.before.cpu), float64(c.ops)), c.ops)
	e.set("slo_miss_frac", ratio(float64(hi.sloMisses(w)), float64(len(hi.units))), len(hi.units))
	attempted := len(lo.units) + len(hi.units)
	e.set("error_frac", ratio(float64(lo.failedUnits()+hi.failedUnits()), float64(attempted)), attempted)
	return e
}

func (e *endToEnd) print() {
	names := make([]string, 0, len(e.vals))
	for n := range e.vals {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("e2e %-22s %12.4f %-6s n=%d\n", n, e.vals[n], unitOf(n), e.counts[n])
	}
}

func (e *endToEnd) result(issues []string, phases ...*phaseRun) result {
	res := result{Correct: len(issues) == 0, Metrics: map[string]metric{}}
	for _, pr := range phases {
		res.Attempted += len(pr.units)
		res.Failed += pr.failedUnits()
	}
	for _, d := range endToEndMetrics {
		res.Metrics[d.name] = metric{Value: e.vals[d.name], Unit: d.unit}
	}
	reportIssues(issues)
	return res
}

func printLayers(layers map[string]float64, extra map[string]int) {
	names := make([]string, 0, len(layers))
	for n := range layers {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("layer %-40s %14.4f %s\n", n, layers[n], unitOf(n))
	}
	for n, v := range extra {
		fmt.Printf("layer %-40s %14d\n", n, v)
	}
}
