// Command perfbench is the repository's benchmark: it builds the
// production Mantle deployment in-process, drives one of three seeded
// open-loop workloads at a low and a high fixed rate, checks the
// namespace afterwards, and prints the end-to-end metrics (or, with
// --trace 1, the per-layer metrics) as the last line of its output.
//
//	go run . --workload lookup-zipf --seed 1 --seconds 25 --trace 0
//
// README.md lists the workloads, the metrics and what each should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"mantle/internal/core"
)

// setupReps is how many times a run sets up its deployment; setup_s is
// the median. The last deployment is the one measured.
const setupReps = 3

// loShare is the share of --seconds spent at the lo rate; the rest runs
// at the hi rate.
const loShare = 0.3

// outDir receives the traced run's span file and self-time table,
// relative to the directory the benchmark runs from.
const outDir = "perfbench/out"

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "workload: lookup-zipf, private-churn or shared-commit")
	seed := flag.Int64("seed", 1, "seed of the op stream")
	seconds := flag.Float64("seconds", 25, "measured seconds per run")
	traced := flag.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end one")
	flag.Parse()
	w, err := findWorkload(*name)
	if err != nil || *seconds <= 0 || *traced < 0 || *traced > 1 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (%v)\n", err)
		flag.Usage()
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	loSec, hiSec := *seconds*loShare, *seconds*(1-loShare)
	p := w.gen(*seed, int(w.loRate*loSec), int(w.hiRate*hiSec))
	fmt.Printf("workload=%s seed=%d seconds=%g trace=%d digest=%s lo=%d@%g/s hi=%d@%g/s\n",
		w.name, *seed, *seconds, *traced, p.digest(), len(p.lo), w.loRate, len(p.hi), w.hiRate)

	var res result
	if *traced == 1 {
		res, err = runTraced(w, p, *seed)
	} else {
		res, err = runEndToEnd(w, p)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// runEndToEnd sets up setupReps times, then runs the hi and the lo phase
// untraced on the last deployment and checks it.
func runEndToEnd(w *workload, p *plan) (result, error) {
	var setups []float64
	var m *core.Mantle
	var entries int
	var memPerEntry float64
	for r := 0; r < setupReps; r++ {
		base := liveHeap()
		var t setupTimes
		var err error
		if m, entries, t, err = setUp(p); err != nil {
			return result{}, err
		}
		setups = append(setups, t.total.Seconds())
		if r < setupReps-1 {
			m.Stop()
			continue
		}
		memPerEntry = float64(liveHeap()-base) / float64(entries)
	}
	defer m.Stop()
	fmt.Printf("setup: entries=%d runs_s=%v\n", entries, setups)

	// hi runs first, so lo starts from the state contention leaves behind
	// (delta records on, once enough conflicts hit a directory) instead of
	// reaching it at a random moment inside the phase.
	px := coreProxy{m}
	hi := runPhase(px, m, p.hi, w.hiRate)
	lo := runPhase(px, m, p.lo, w.loRate)
	issues := verify(m, []*phaseRun{hi, lo})

	e := newEndToEnd(w, lo, hi)
	e.set("setup_s", median(setups), len(setups))
	e.set("mem_bytes_per_entry", memPerEntry, entries)
	e.print()
	layers := hi.layerMetrics()
	printLayers(layers, nil)
	fmt.Printf("ledger: modelled %.3f ms/op | real cpu %.1f us/op, %.1f allocs/op, %.0f B/op, %.3f gc/kop\n",
		layers["netsim.modelled_ms_per_op"], e.vals["cpu_us_per_op"], layers["runtime.allocs_per_op"],
		layers["runtime.alloc_bytes_per_op"], layers["runtime.gc_per_kop"])
	return e.result(issues, lo, hi), nil
}

// runTraced runs the hi phase twice on fresh deployments: untraced
// through core.Mantle for the counter ledger, then traced through the
// benchmark's replay of the proxy, and reports the per-layer metrics.
func runTraced(w *workload, p *plan, seed int64) (result, error) {
	m, _, _, err := setUp(p)
	if err != nil {
		return result{}, err
	}
	plain := runPhase(coreProxy{m}, m, p.hi, w.hiRate)
	issues := verify(m, []*phaseRun{plain})
	m.Stop()

	m, _, st, err := setUp(p)
	if err != nil {
		return result{}, err
	}
	defer m.Stop()
	tp := newTracedProxy(m, plain.opCount())
	traced := runPhase(tp, m, p.hi, w.hiRate)
	issues = append(issues, verify(m, []*phaseRun{traced})...)

	self := computeSelf(tp.spans)
	if e := self.sumError(); e > selfSumTolerance {
		issues = append(issues, fmt.Sprintf("self times sum to %.1f ms, traced end-to-end is %.1f ms (residual %.2e > %.0e)",
			ms(self.self), ms(self.root), e, selfSumTolerance))
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return result{}, err
	}
	stem := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", w.name, seed))
	if err := writeFile(stem+".spans.jsonl", func(f *os.File) error { return writeSpans(f, tp.spans, traced.start) }); err != nil {
		return result{}, err
	}
	if err := writeFile(stem+".selftime.txt", func(f *os.File) error { self.writeTable(f); return nil }); err != nil {
		return result{}, err
	}
	self.writeTable(os.Stdout)
	fmt.Printf("spans: %s.spans.jsonl\n", stem)

	layers := plain.layerMetrics()
	plainP50, tracedP50 := plain.unitLatencies().quantile(0.5), traced.unitLatencies().quantile(0.5)
	layers["trace.overhead_frac"] = ratio(tracedP50-plainP50, plainP50)
	layers["proxy.self_us"] = self.rootMeanUs()
	layers["indexnode.lookup_us"] = self.meanUs("indexnode.Lookup")
	layers["indexnode.replicate_us"] = self.meanUs("indexnode.AddDir", "indexnode.RemoveDir",
		"indexnode.PrepareRename", "indexnode.CommitRename")
	layers["indexnode.lock_conflicts_per_rename"] = ratio(float64(tp.lockConflicts.Load()), float64(tp.renames.Load()))
	for _, c := range tafdbCalls {
		layers["tafdb."+c+"_us"] = self.meanUs("tafdb." + c)
	}
	layers["setup.bulk_insert_s"] = st.bulkInsert.Seconds()
	layers["setup.bulk_add_s"] = st.bulkAdd.Seconds()
	printLayers(layers, map[string]int{"traced_ops": traced.opCount(), "plain_ops": plain.opCount()})

	res := result{Correct: len(issues) == 0, Metrics: map[string]metric{}}
	for _, pr := range []*phaseRun{plain, traced} {
		res.Attempted += len(pr.units)
		res.Failed += pr.failedUnits()
	}
	for _, d := range perLayerMetrics {
		res.Metrics[d.name] = metric{Value: layers[d.name], Unit: d.unit}
	}
	reportIssues(issues)
	return res, nil
}

// tafdbCalls are the tafdb.DB calls the traced proxy spans.
var tafdbCalls = []string{"StatObject", "StatDir", "ReadDirPage", "CreateObject", "DeleteObject", "Mkdir", "Rmdir", "RenameDir"}

func writeFile(path string, fn func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

func reportIssues(issues []string) {
	for _, is := range issues {
		fmt.Printf("CHECK FAILED: %s\n", is)
	}
	if len(issues) == 0 {
		fmt.Println("checks: all passed")
	}
}
