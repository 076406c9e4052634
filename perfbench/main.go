// Command perfbench is the repository's benchmark. It runs one of three
// workloads on inputs generated from a seed: the request path of the
// scheduling service (workload -> sched -> routing -> wormsim), the
// paper's dynamic wormhole simulation, and the paper's static multicast
// heuristics. It checks their outputs and prints, as its last line, one
// JSON object with the end-to-end metrics of untraced runs (-trace 0) or
// the per-layer metrics of traced runs (-trace 1).
//
//	bash perfbench/run.sh --workload serve-zipf-mesh64 --seed 1 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"time"

	"multicastnet/internal/stats"
)

// metric is a reported metric: its name and unit.
type metric struct{ name, unit string }

// endToEnd are the metrics of untraced runs, reported on every workload.
var endToEnd = []metric{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"alloc_mb", "MB"},
	{"live_heap_mb", "MB"},
}

// perLayer are the metrics of traced runs, reported on every workload; a
// layer a workload does not exercise reports 0.
var perLayer = []metric{
	{"topology.build_s", "s"},
	{"routing.state_build_s", "s"},
	{"workload.record_s", "s"},
	{"workload.next_s", "s"},
	{"workload.late_cycles_max", "cycles"},
	{"routing.plan_calls", "count"},
	{"routing.plan_s", "s"},
	{"routing.plan_us_p50", "us"},
	{"routing.plan_us_p99", "us"},
	{"routing.cache_hits", "count"},
	{"routing.cache_misses", "count"},
	{"routing.cache_evictions", "count"},
	{"routing.cache_hit_ratio", "ratio"},
	{"sched.submit_s", "s"},
	{"sched.close_window_s", "s"},
	{"sched.close_window_us_p50", "us"},
	{"sched.close_window_us_p99", "us"},
	{"sched.pack_self_s", "s"},
	{"sched.windows", "count"},
	{"sched.admitted", "count"},
	{"sched.deferred", "count"},
	{"sched.force_admits", "count"},
	{"sched.admit_ratio", "ratio"},
	{"sched.max_in_flight", "count"},
	{"wormsim.inject_s", "s"},
	{"wormsim.step_s", "s"},
	{"wormsim.steps", "count"},
	{"wormsim.fast_forwards", "count"},
	{"wormsim.cycles", "cycles"},
	{"wormsim.run_self_s", "s"},
	{"wormsim.cycles_per_s", "cycles/s"},
	{"wormsim.multicasts", "count"},
	{"wormsim.deliveries", "count"},
	{"heuristics.sets", "count"},
	{"heuristics.greedyst_s", "s"},
	{"heuristics.len_s", "s"},
	{"heuristics.sortedmp_s", "s"},
	{"heuristics.mt_s", "s"},
	{"heuristics.baseline_s", "s"},
	{"bench.explained_frac", "ratio"},
	{"bench.trace_overhead_frac", "ratio"},
	// Outcomes of the simulation or computation: deterministic for a
	// seed, so a change meant only to go faster leaves them unchanged.
	{"sim_thr_per_kcycle", "mcast/kcycle"},
	{"sim_p50_cycles", "cycles"},
	{"sim_p99_cycles", "cycles"},
	{"sim_capacity_per_kcycle", "req/kcycle"},
	{"sim_latency_us", "us"},
	{"sim_thr_per_ms", "deliveries/ms"},
	{"additional_traffic", "channels"},
	{"failed_frac", "ratio"},
}

// bench is one benchmark workload.
type bench interface {
	// setup builds every input and all fresh state of one timed run from
	// seed, with a span around each layer call when tr is non-nil; the
	// returned phase then routes its layer calls through tr as well.
	setup(tr *tracer, seed uint64) (phase, error)
	// check verifies first, the output of an untraced run on seed,
	// against an independent path. It returns the number of outputs
	// checked and how many of them failed, with the first failure.
	check(seed uint64, first output) (checked, failed int, err error)
}

// phase is the timed part of one run.
type phase interface {
	run() (output, error)
}

// output is what one timed phase produced.
type output struct {
	result    any                // equal for equal seeds: compared across runs
	outcome   map[string]float64 // outcome metrics, by name
	attempted int                // units of work offered
	failed    int                // units that did not complete
	counters  map[string]float64 // layer counters, by metric name
}

// size scales every workload.
type size struct {
	serve  serveBench
	sim    simBench
	static staticBench
}

// fullSize is the benchmark's size; the smoke test uses tinySize.
var fullSize = size{
	serve:  serveBench{requests: 250, streams: 24, gaps: []float64{16, 12, 8, 6, 4, 2, 1}},
	sim:    simBench{dests: []int{5, 15, 30, 45}, maxCycles: 120_000},
	static: staticBench{reps: 8},
}

var tinySize = size{
	serve:  serveBench{requests: 60, streams: 2, gaps: []float64{16, 1}},
	sim:    simBench{dests: []int{5}, maxCycles: 4_000},
	static: staticBench{reps: 1},
}

var workloadNames = []string{"serve-zipf-mesh64", "sim-paper-mesh8", "static-steiner"}

func (s size) bench(name string) (bench, bool) {
	switch name {
	case "serve-zipf-mesh64":
		return s.serve, true
	case "sim-paper-mesh8":
		return s.sim, true
	case "static-steiner":
		return s.static, true
	}
	return nil, false
}

// options configure one benchmark process.
type options struct {
	seed    uint64
	seconds float64
	trace   bool
	spans   string // file for the spans of the last traced run; "" writes none
}

// report is the result of one benchmark process.
type report struct {
	correct   bool
	attempted int
	failed    int
	metrics   map[string]float64
	outcome   map[string]float64
	runs      int
	problems  []string
}

// minRuns is the fewest timed runs a process makes, whatever its time.
const minRuns = 3

// measure warms up, then repeats fresh set-up plus the timed phase until
// o.seconds have passed, and checks the outputs. With o.trace, every
// second run is traced and the per-layer metrics are the medians over the
// traced runs; otherwise every run is untraced and the end-to-end
// metrics are medians over them.
func measure(w bench, o options) (report, error) {
	rep := report{correct: true}
	// Warm up on another seed so first-use costs stay out of the timed runs.
	warm, err := w.setup(nil, stats.DeriveSeed(o.seed, "perfbench/warmup"))
	if err != nil {
		return rep, fmt.Errorf("warm-up set-up: %w", err)
	}
	if _, err := warm.run(); err != nil {
		return rep, fmt.Errorf("warm-up run: %w", err)
	}

	var setups, walls, allocs, heaps, tracedWalls []float64
	var layers []map[string]float64
	var first *output
	var lastTrace *tracer
	runs := minRuns
	if o.trace {
		runs = 2 * minRuns
	}
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for i := 0; i < runs || time.Now().Before(deadline); i++ {
		var tr *tracer
		if o.trace && i%2 == 1 {
			tr = newTracer()
		}
		runtime.GC()
		t0 := time.Now()
		ph, err := w.setup(tr, o.seed)
		setup := time.Since(t0).Seconds()
		if err != nil {
			return rep, fmt.Errorf("set-up: %w", err)
		}
		runtime.GC()
		var before, after, live runtime.MemStats
		runtime.ReadMemStats(&before)
		tr.markPhase()
		t1 := time.Now()
		out, err := ph.run()
		wall := time.Since(t1).Seconds()
		if err != nil {
			return rep, fmt.Errorf("run: %w", err)
		}
		runtime.ReadMemStats(&after)
		runtime.GC()
		runtime.ReadMemStats(&live)
		runtime.KeepAlive(ph)

		rep.attempted += out.attempted
		rep.failed += out.failed
		if first == nil {
			first = &out
		} else if !reflect.DeepEqual(first.result, out.result) {
			rep.correct = false
			rep.problems = append(rep.problems, fmt.Sprintf("run %d: output differs from run 0 on the same seed", i))
		}
		if tr != nil {
			tracedWalls = append(tracedWalls, wall)
			layers = append(layers, layerMetrics(tr, out, wall))
			lastTrace = tr
			continue
		}
		setups = append(setups, setup)
		walls = append(walls, wall)
		allocs = append(allocs, float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
		heaps = append(heaps, float64(live.HeapAlloc)/(1<<20))
	}
	rep.runs = len(walls) + len(tracedWalls)
	rep.outcome = first.outcome

	checked, failed, err := w.check(o.seed, *first)
	rep.attempted += checked
	rep.failed += failed
	if err != nil {
		rep.correct = false
		rep.problems = append(rep.problems, "check: "+err.Error())
	}
	if rep.failed > 0 {
		rep.correct = false
	}

	if !o.trace {
		rep.metrics = map[string]float64{
			"wall_s":       median(walls),
			"setup_s":      median(setups),
			"alloc_mb":     median(allocs),
			"live_heap_mb": median(heaps),
		}
		return rep, nil
	}
	rep.metrics = map[string]float64{}
	for _, m := range perLayer {
		vals := make([]float64, len(layers))
		for j, l := range layers {
			vals[j] = l[m.name]
		}
		rep.metrics[m.name] = median(vals)
	}
	rep.metrics["bench.trace_overhead_frac"] = median(tracedWalls)/median(walls) - 1
	rep.metrics["failed_frac"] = ratio(float64(rep.failed), float64(rep.attempted))
	if o.spans != "" {
		if err := lastTrace.write(o.spans); err != nil {
			return rep, fmt.Errorf("writing spans: %w", err)
		}
	}
	return rep, nil
}

// layerMetrics derives the per-layer metrics of one traced run from its
// spans, the layer counters and the outcome.
func layerMetrics(tr *tracer, out output, wall float64) map[string]float64 {
	a := tr.totals()
	m := map[string]float64{
		"topology.build_s":          a.total[spanTopologyBuild],
		"routing.state_build_s":     a.total[spanStateBuild],
		"workload.record_s":         a.total[spanRecord],
		"workload.next_s":           a.total[spanNext],
		"routing.plan_calls":        a.count[spanPlan],
		"routing.plan_s":            a.total[spanPlan],
		"routing.plan_us_p50":       a.percentileUs(spanPlan, 0.50),
		"routing.plan_us_p99":       a.percentileUs(spanPlan, 0.99),
		"sched.submit_s":            a.total[spanSubmit],
		"sched.close_window_s":      a.total[spanCloseWindow],
		"sched.close_window_us_p50": a.percentileUs(spanCloseWindow, 0.50),
		"sched.close_window_us_p99": a.percentileUs(spanCloseWindow, 0.99),
		"sched.pack_self_s":         a.self[spanCloseWindow],
		"wormsim.inject_s":          a.total[spanInject],
		"wormsim.step_s":            a.total[spanStep],
		"wormsim.steps":             a.count[spanStep],
		"wormsim.fast_forwards":     a.count[spanFastForward],
		"wormsim.run_self_s":        a.self[spanRun],
		"heuristics.greedyst_s":     a.total[spanGreedyST],
		"heuristics.len_s":          a.total[spanLEN],
		"heuristics.sortedmp_s":     a.total[spanSortedMP],
		"heuristics.mt_s":           a.total[spanMT],
		"heuristics.baseline_s":     a.total[spanBaseline],
		"bench.explained_frac":      ratio(a.phaseSelf, wall),
	}
	simSelf := a.self[spanRun] + a.self[spanInject] + a.self[spanStep] + a.self[spanFastForward]
	m["wormsim.cycles_per_s"] = ratio(out.counters["wormsim.cycles"], simSelf)
	for k, v := range out.counters {
		m[k] = v
	}
	for k, v := range out.outcome {
		m[k] = v
	}
	return m
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// median returns the median of vals, or 0 for none.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultOf selects the metrics of the run's mode. A value that is not a
// finite number marks the result incorrect and is reported as 0.
func resultOf(rep report, trace bool) result {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	res := result{Correct: rep.correct, Attempted: rep.attempted, Failed: rep.failed,
		Metrics: make(map[string]metricValue, len(defs))}
	for _, m := range defs {
		v := rep.metrics[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			res.Correct = false
			v = 0
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	return res
}

// provenance is printed with every result.
type provenance struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Runs       int     `json:"runs"`
	Nproc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPU        string  `json:"cpu_model"`
	Commit     string  `json:"commit"`
}

// cpuModel returns the host's CPU model name, or "unknown".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit returns the commit checked out in the working directory, or
// "unknown" outside a git checkout.
func commit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[1] == ref {
			return f[0]
		}
	}
	return "unknown"
}

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 10, "seconds of timed runs")
	trace := flag.Int("trace", 0, "0 reports end-to-end metrics of untraced runs; 1 reports per-layer metrics of traced runs")
	flag.Parse()

	w, ok := fullSize.bench(*name)
	if !ok || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload <%s> --seed <n> --seconds <s> --trace <0|1>\n",
			strings.Join(workloadNames, "|"))
		os.Exit(2)
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1}
	if o.trace {
		o.spans = filepath.Join(".bench_build", "spans-"+*name+".tsv")
	}
	rep, err := measure(w, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}

	// A struct of strings and numbers always marshals.
	prov, _ := json.Marshal(provenance{
		Workload: *name, Seed: *seed, Seconds: *seconds, Trace: o.trace, Runs: rep.runs,
		Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPU: cpuModel(), Commit: commit(),
	})
	fmt.Printf("provenance %s\n", prov)
	names := make([]string, 0, len(rep.outcome))
	for k := range rep.outcome {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("outcome %s = %v\n", k, rep.outcome[k])
	}
	fmt.Printf("outcome failed_frac = %v (%d of %d)\n", ratio(float64(rep.failed), float64(rep.attempted)), rep.failed, rep.attempted)
	for _, p := range rep.problems {
		fmt.Printf("problem %s\n", p)
	}
	line, err := json.Marshal(resultOf(rep, o.trace))
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
