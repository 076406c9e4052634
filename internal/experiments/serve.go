package experiments

import (
	"fmt"
	"runtime"

	"multicastnet/internal/routing"
	"multicastnet/internal/sched"
	"multicastnet/internal/stats"
	"multicastnet/internal/topology"
	"multicastnet/internal/workload"
)

// The serving study: aggregate multicast throughput and completion-latency
// percentiles of the window-batched scheduling service (internal/sched) on
// the 64x64 mesh under dual-path routing. A Poisson stream of requests
// drawn from a fixed pool of multicast groups (the workload engine's
// uniform model; any other model by name) is batched into admission
// windows, planned through a shared plan cache, congestion-packed, and
// simulated to completion in wormsim. Two policies run over identical
// request streams:
//
//   - fifo:  Budget 0 — every planned request is injected at the next
//     window close, no load accounting (the pre-scheduler baseline);
//   - sched: congestion+dilation-aware packing under a channel-load
//     budget — requests that would push the window past the budget are
//     deferred to a later window.
//
// The study sweeps offered load at a fixed window and window size at the
// highest load. Every figure and the points table are pure functions of
// the seed: byte-identical at any -parallel (sweep workers and planner
// workers) value.

// ServeOptions configure the serving study.
type ServeOptions struct {
	Seed uint64
	// Parallel is the sweep worker count; it also sets the planner worker
	// count inside each service. Figures are byte-identical for every
	// value.
	Parallel int

	Requests  int       // requests offered per point
	Groups    int       // multicast group pool size
	AvgDests  int       // destination count is uniform in [1, 2*AvgDests-1]
	Flits     int       // message length
	Budget    int32     // sched policy channel-load budget
	Window    int64     // admission window of the load sweep, cycles
	Loads     []float64 // mean inter-arrival cycles, high to low load
	Windows   []int64   // window sweep values, run at the highest load
	MaxCycles int64

	// Workload names the workload profile (see WorkloadModelNames) that
	// generates each point's stream at its inter-arrival gap. The
	// committed serving figures run the uniform model.
	Workload string

	// Check runs the simulator's invariant audit in every run (see
	// sched.ServeConfig.Check); outputs are unchanged.
	Check bool
}

// ServeDefaults are the committed-figure settings. Budget 220 sits ~70
// above the dual-path dilation of the 64x64 mesh (~150): most of a window
// admits, and the congestion tail is deferred rather than injected.
func ServeDefaults() ServeOptions {
	return ServeOptions{
		Seed:      1990,
		Requests:  3000,
		Groups:    512,
		AvgDests:  4,
		Flits:     32,
		Budget:    220,
		Window:    256,
		Loads:     []float64{8, 4, 2, 1, 0.5},
		Windows:   []int64{64, 256, 1024},
		MaxCycles: 5_000_000,
		Workload:  workload.ModelUniform,
	}
}

// ServeQuick shrinks the request and point budgets for smoke runs.
func ServeQuick() ServeOptions {
	o := ServeDefaults()
	o.Requests = 600
	o.Groups = 128
	o.Loads = []float64{4, 1}
	o.Windows = []int64{64, 256}
	o.MaxCycles = 2_000_000
	return o
}

// ServePoint is one (policy, load, window) run.
type ServePoint struct {
	Policy           string
	MeanInterarrival float64
	WindowCycles     int64
	sched.ServeResult
}

// ServeStudyResult is the full study output; every field except
// GOMAXPROCS is deterministic.
type ServeStudyResult struct {
	GOMAXPROCS int
	// Load sweep, x = offered load (requests per 1000 cycles).
	Throughput *stats.Figure
	P99        *stats.Figure
	// Window sweep at the highest load, x = window cycles.
	WindowThroughput *stats.Figure
	WindowP99        *stats.Figure
	Points           []ServePoint
}

type servePolicy struct {
	name   string
	budget int32
}

// serve runs one policy over src through a fresh dual-path router and
// plan cache on st: the one serving run of the serving study and the
// workload study's packer sweep.
func serve(st *routing.State, budget int32, workers int, window int64, flits int,
	maxCycles int64, src *workload.Stream, check bool) sched.ServeResult {
	cache := routing.NewPlanCache(0)
	r, err := routing.New("dual-path", st)
	if err != nil {
		panic(err)
	}
	return sched.Serve(sched.ServeConfig{
		Service:      sched.Config{Router: routing.Flat(r, cache), Budget: budget, Workers: workers},
		Workload:     src,
		Requests:     src.Spec().Requests,
		WindowCycles: window,
		Flits:        flits,
		MaxCycles:    maxCycles,
		Cache:        cache,
		Check:        check,
	})
}

// ServeStudy runs the full sweep. Each point builds its own plan cache
// and service over the study's one routing state, so points are
// independent and safe to run on any sweep worker. One group pool serves
// the whole sweep; each point draws its own arrivals.
func ServeStudy(o ServeOptions) ServeStudyResult {
	topo := topology.NewMesh2D(64, 64)
	st, err := routing.NewState(topo)
	if err != nil {
		panic(err)
	}
	out := ServeStudyResult{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Throughput: &stats.Figure{ID: "Serve throughput",
			Title:  "Delivered multicast throughput vs offered load (64x64 mesh, dual-path, window-batched service)",
			XLabel: "offered load (requests per 1000 cycles)", YLabel: "completed multicasts per 1000 cycles"},
		P99: &stats.Figure{ID: "Serve p99",
			Title:  "P99 request-to-completion latency vs offered load (queueing included)",
			XLabel: "offered load (requests per 1000 cycles)", YLabel: "p99 completion latency (cycles)"},
		WindowThroughput: &stats.Figure{ID: "Serve window throughput",
			Title:  "Delivered throughput vs admission window size (highest offered load)",
			XLabel: "admission window (cycles)", YLabel: "completed multicasts per 1000 cycles"},
		WindowP99: &stats.Figure{ID: "Serve window p99",
			Title:  "P99 completion latency vs admission window size (highest offered load)",
			XLabel: "admission window (cycles)", YLabel: "p99 completion latency (cycles)"},
	}

	policies := []servePolicy{{"fifo", 0}, {"sched", o.Budget}}
	poolSeed := stats.DeriveSeed(o.Seed, "serve/pool")
	run := func(p servePolicy, ia float64, window int64, label string) sched.ServeResult {
		spec, err := workloadStudySpec(o.Workload, o.Requests, o.Groups, o.AvgDests, ia, 1.2)
		if err != nil {
			panic(err)
		}
		src, err := workload.NewSeeded(topo, spec, poolSeed, stats.DeriveSeed(o.Seed, label))
		if err != nil {
			panic(err)
		}
		return serve(st, p.budget, o.Parallel, window, o.Flits, o.MaxCycles, src, o.Check)
	}

	var points []SweepPoint
	results := make([]ServePoint, 2*(len(o.Loads)+len(o.Windows)))
	n := 0
	for _, p := range policies {
		ts := out.Throughput.AddSeries(p.name)
		ls := out.P99.AddSeries(p.name)
		for _, ia := range o.Loads {
			p, ia, slot := p, ia, n
			// The label omits the policy: fifo and sched run over the
			// identical request stream, so each load is a paired
			// comparison.
			label := fmt.Sprintf("serve/load/%g", ia)
			points = append(points, SweepPoint{
				Run: func() any { return run(p, ia, o.Window, label) },
				Commit: func(v any) {
					res := v.(sched.ServeResult)
					results[slot] = ServePoint{p.name, ia, o.Window, res}
					ts.Add(1000/ia, res.ThroughputPerKCycle)
					ls.Add(1000/ia, res.P99Latency)
				},
			})
			n++
		}
	}
	// Seed labels use the highest offered load = smallest inter-arrival.
	peak := o.Loads[0]
	for _, ia := range o.Loads {
		if ia < peak {
			peak = ia
		}
	}
	for _, p := range policies {
		ts := out.WindowThroughput.AddSeries(p.name)
		ls := out.WindowP99.AddSeries(p.name)
		for _, w := range o.Windows {
			p, w, slot := p, w, n
			label := fmt.Sprintf("serve/window/%d", w)
			points = append(points, SweepPoint{
				Run: func() any { return run(p, peak, w, label) },
				Commit: func(v any) {
					res := v.(sched.ServeResult)
					results[slot] = ServePoint{p.name, peak, w, res}
					ts.Add(float64(w), res.ThroughputPerKCycle)
					ls.Add(float64(w), res.P99Latency)
				},
			})
			n++
		}
	}
	RunSweep(points, o.Parallel)
	out.Points = results
	return out
}
