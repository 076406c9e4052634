package experiments

import (
	"fmt"
	"runtime"
	"time"

	"multicastnet/internal/routing"
	"multicastnet/internal/stats"
	"multicastnet/internal/topology"
	"multicastnet/internal/wormsim"
)

// The beyond-paper scale study: the dissertation's simulations stop at an
// 8x8 mesh; this study drives the simulator across networks two orders
// of magnitude larger — a 64x64 mesh, an 8-ary 4-cube and a 65536-node
// hypercube — measuring simulated cycles per wall-clock second. Each
// workload runs twice, an untimed warm-up and the timed run, and the two
// Results must match field for field, so the study doubles as a
// large-topology determinism audit. The timed run also reports the
// bytes it allocated, so a change to the simulator's per-channel state
// shows its memory cost on the 65536-node hypercube.

// ScaleWorkload is one fixed simulation workload of the study.
type ScaleWorkload struct {
	Name string
	// Build constructs the topology (deferred: the 2^16-node hypercube
	// state is only precomputed when the workload actually runs).
	Build func() topology.Topology
	// Scheme is the registry scheme routing the workload; plans are
	// injected in dense CSR form through a shared plan cache.
	Scheme string
	// InterarrivalMicros is the per-node mean inter-arrival time, scaled
	// with node count so the in-flight population stays comparable.
	InterarrivalMicros float64
	AvgDests           int
	// MaxCycles is the fixed cycle budget; runs never converge early, so
	// both runs of a workload simulate exactly the same cycles.
	MaxCycles int64
}

// ScaleOptions configure the study.
type ScaleOptions struct {
	Seed uint64
	// Workloads overrides the workload set; nil selects ScaleWorkloads.
	Workloads []ScaleWorkload
	// CycleFrac scales every workload's cycle budget (0 = 1.0) — the
	// -quick knob.
	CycleFrac float64
	// Check runs the wormsim invariant audit inside every run.
	Check bool
}

func (o ScaleOptions) workloads() []ScaleWorkload {
	if o.Workloads != nil {
		return o.Workloads
	}
	return ScaleWorkloads()
}

// ScaleDefaults are the committed-figure settings.
func ScaleDefaults() ScaleOptions { return ScaleOptions{Seed: 1990} }

// ScaleQuick shrinks the cycle budgets for smoke runs.
func ScaleQuick() ScaleOptions { return ScaleOptions{Seed: 1990, CycleFrac: 0.15} }

// ScaleWorkloads returns the default workload set. Budgets are sized so
// the full study runs in seconds on one core.
func ScaleWorkloads() []ScaleWorkload {
	return []ScaleWorkload{
		{
			Name:               "mesh64x64",
			Build:              func() topology.Topology { return topology.NewMesh2D(64, 64) },
			Scheme:             "dual-path",
			InterarrivalMicros: 10_000, // 4096 nodes: ~64x the 8x8 per-node load spacing
			AvgDests:           10,
			MaxCycles:          200_000,
		},
		{
			Name:               "cube8ary4",
			Build:              func() topology.Topology { return topology.NewKAryNCube(8, 4) },
			Scheme:             "dual-path",
			InterarrivalMicros: 10_000,
			AvgDests:           10,
			MaxCycles:          200_000,
		},
		{
			Name:               "hypercube64k",
			Build:              func() topology.Topology { return topology.NewHypercube(16) },
			Scheme:             "multi-path",
			InterarrivalMicros: 160_000, // 65536 nodes
			AvgDests:           10,
			MaxCycles:          40_000,
		},
	}
}

// ScalePoint is one measured workload.
type ScalePoint struct {
	Workload     string
	Cycles       int64
	WallSecs     float64
	CyclesPerSec float64
	// AllocMB is the heap the timed run allocated, in MiB (the
	// runtime's TotalAlloc delta across the run).
	AllocMB float64
}

// ScaleResult is the full study output.
type ScaleResult struct {
	GOMAXPROCS int
	Points     []ScalePoint
}

// scaleRun executes one run of a workload and returns its result, wall
// seconds and allocated MiB.
func scaleRun(w ScaleWorkload, topo topology.Topology, route wormsim.RouteFunc,
	o ScaleOptions) (wormsim.Result, float64, float64) {
	budget := w.MaxCycles
	if o.CycleFrac > 0 {
		budget = int64(float64(budget) * o.CycleFrac)
	}
	cfg := wormsim.Config{
		Topology:               topo,
		Route:                  route,
		MeanInterarrivalMicros: w.InterarrivalMicros,
		AvgDests:               w.AvgDests,
		Seed:                   stats.DeriveSeed(o.Seed, "scale/"+w.Name),
		WarmupDeliveries:       50,
		BatchSize:              100,
		MinBatches:             1 << 30, // never converge: fixed cycle budget
		MaxCycles:              budget,
		Check:                  o.Check,
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	res, err := wormsim.Run(cfg)
	secs := time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	if err != nil {
		panic(fmt.Sprintf("scale %s: %v", w.Name, err))
	}
	return res, secs, float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
}

// ScaleStudy measures every workload. Runs execute sequentially — each
// one owns the machine, so the wall times are comparable. A workload
// whose timed run diverges from its warm-up run panics: the timed run
// hits the plan cache the warm-up filled, and the simulation must not
// depend on that.
func ScaleStudy(o ScaleOptions) ScaleResult {
	out := ScaleResult{GOMAXPROCS: runtime.GOMAXPROCS(0)}
	for _, w := range o.workloads() {
		topo := w.Build()
		st, err := routing.SharedState(topo)
		if err != nil {
			panic(err)
		}
		r, err := routing.New(w.Scheme, st)
		if err != nil {
			panic(err)
		}
		route := wormsim.FlatRouteFuncOf(routing.Flat(r, routing.NewPlanCache(0)))

		// Untimed warmup: populates the shared plan cache (and the
		// allocator) so the timed run is not charged for one-time costs.
		warm, _, _ := scaleRun(w, topo, route, o)
		res, secs, allocMB := scaleRun(w, topo, route, o)
		scaleAudit(w.Name, warm, res)
		if res.Delivered == 0 {
			panic(fmt.Sprintf("scale %s: workload delivered nothing", w.Name))
		}
		out.Points = append(out.Points, ScalePoint{
			Workload: w.Name, Cycles: res.Cycles, WallSecs: secs,
			CyclesPerSec: float64(res.Cycles) / secs, AllocMB: allocMB,
		})
	}
	return out
}

// scaleAudit panics unless a workload's timed run reproduced its warm-up
// run field for field.
func scaleAudit(name string, warm, timed wormsim.Result) {
	if timed != warm {
		panic(fmt.Sprintf("scale %s: timed run diverged from warm-up:\nwarm-up: %+v\ntimed:   %+v",
			name, warm, timed))
	}
}
