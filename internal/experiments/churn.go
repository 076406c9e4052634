package experiments

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"multicastnet/internal/core"
	"multicastnet/internal/fault"
	"multicastnet/internal/routing"
	"multicastnet/internal/stats"
	"multicastnet/internal/topology"
	"multicastnet/internal/wormsim"
)

// The churn study: online re-planning under a continuous fault/repair
// stream on networks far beyond the dissertation's 8x8 mesh. Each
// workload keeps a fixed working set of multicast flows planned through a
// delta-driven fault.LiveRouter while seeded deltas kill and resurrect
// hardware; the study measures
//
//   - cache hit rate and evictions per churn step under targeted
//     invalidation (only plans touching dead channels are evicted)
//     versus the pre-refactor nuke-everything policy — deterministic
//     counts, committed as figures;
//   - re-plan latency per delta for the incremental path (LiveRouter:
//     O(|delta|) state patch + replanning only evicted flows) versus a
//     full rebuild (a fresh LiveRouter given every active fault as one
//     delta, every flow re-planned) — wall-clock timings, recorded in
//     churn_study.txt;
//   - a full dynamic wormhole simulation whose mid-run fault epochs
//     re-plan through the same delta path (fault.SimSchedule) — the
//     delivery accounting is deterministic and is committed in
//     churn_sim.txt.

// ChurnWorkload is one topology/scheme/stream configuration.
type ChurnWorkload struct {
	Name string
	// Build constructs the topology (deferred; the big states are only
	// computed when the workload runs).
	Build func() topology.Topology
	// Scheme is the registry scheme under churn.
	Scheme string
	// Steps is the churn stream length (deltas applied).
	Steps int
	// WorkingSet is the number of concurrent multicast flows re-planned
	// every epoch; Dests is each flow's destination count.
	WorkingSet, Dests int
	// SimFaults is the fail-only event budget of the simulator run.
	SimFaults int
}

// ChurnOptions configure the study.
type ChurnOptions struct {
	Seed uint64
	// Parallel is the sweep worker count for the deterministic counting
	// passes; figures are byte-identical for every value.
	Parallel int
	// SimCycles is the cycle budget of each delta-driven simulator run.
	SimCycles int64
	// StepFrac scales every workload's Steps (0 = 1.0) — the -quick knob.
	StepFrac float64
	// Check runs the wormsim invariant audit inside the simulator runs.
	Check bool
	// Workloads overrides the workload set; nil selects ChurnWorkloads.
	Workloads []ChurnWorkload
}

func (o ChurnOptions) workloads() []ChurnWorkload {
	if o.Workloads != nil {
		return o.Workloads
	}
	return ChurnWorkloads()
}

func (o ChurnOptions) steps(w ChurnWorkload) int {
	if o.StepFrac <= 0 {
		return w.Steps
	}
	s := int(float64(w.Steps) * o.StepFrac)
	if s < 4 {
		s = 4
	}
	return s
}

// ChurnDefaults are the committed-figure settings.
func ChurnDefaults() ChurnOptions { return ChurnOptions{Seed: 1990, SimCycles: 40_000} }

// ChurnQuick shrinks the stream and cycle budgets for smoke runs.
func ChurnQuick() ChurnOptions {
	return ChurnOptions{Seed: 1990, StepFrac: 0.25, SimCycles: 8_000}
}

// ChurnWorkloads returns the default workload set: the 64x64 mesh under
// dual-path and the 4096-node hypercube under multi-path.
func ChurnWorkloads() []ChurnWorkload {
	return []ChurnWorkload{
		{
			Name:       "mesh64x64",
			Build:      func() topology.Topology { return topology.NewMesh2D(64, 64) },
			Scheme:     "dual-path",
			Steps:      64,
			WorkingSet: 48,
			Dests:      10,
			SimFaults:  24,
		},
		{
			Name:       "hypercube4k",
			Build:      func() topology.Topology { return topology.NewHypercube(12) },
			Scheme:     "multi-path",
			Steps:      64,
			WorkingSet: 48,
			Dests:      10,
			SimFaults:  24,
		},
	}
}

// churnStream draws the deterministic delta sequence: roughly one third
// of the draws repair a currently active fault, the rest kill fresh
// hardware (mostly links, with node and virtual-channel faults mixed in).
// The stream is a pure function of (topology, steps, seed).
func churnStream(topo topology.Topology, steps int, seed uint64) []fault.Delta {
	links := fault.EnumerateLinks(topo)
	rng := stats.NewRand(seed)
	var active []fault.Event
	out := make([]fault.Delta, 0, steps)
	for i := 0; i < steps; i++ {
		var d fault.Delta
		if len(active) > 0 && rng.Intn(3) == 0 {
			j := rng.Intn(len(active))
			d.Repair = append(d.Repair, active[j])
			active = append(active[:j], active[j+1:]...)
			out = append(out, d)
			continue
		}
		var e fault.Event
		switch rng.Intn(8) {
		case 0:
			e = fault.Event{Kind: fault.NodeFault, A: topology.NodeID(rng.Intn(topo.Nodes()))}
		case 1:
			l := links[rng.Intn(len(links))]
			e = fault.Event{Kind: fault.VCFault, A: l.U, B: l.V, Class: rng.Intn(2)}
		default:
			l := links[rng.Intn(len(links))]
			e = fault.Event{Kind: fault.LinkFault, A: l.U, B: l.V}
		}
		d.Fail = append(d.Fail, e)
		dup := false
		for _, a := range active {
			if a == e {
				dup = true
				break
			}
		}
		if !dup {
			active = append(active, e)
		}
		out = append(out, d)
	}
	return out
}

// churnWorkingSet draws the fixed multicast flows re-planned every epoch.
func churnWorkingSet(topo topology.Topology, n, dests int, seed uint64) []core.MulticastSet {
	rng := stats.NewRand(seed)
	out := make([]core.MulticastSet, 0, n)
	for i := 0; i < n; i++ {
		ids := rng.Sample(topo.Nodes(), dests+1)
		members := make([]topology.NodeID, len(ids)-1)
		for j, v := range ids[1:] {
			members[j] = topology.NodeID(v)
		}
		out = append(out, core.MustMulticastSet(topo, topology.NodeID(ids[0]), members))
	}
	return out
}

// churnCounts is the deterministic per-step accounting of one policy run.
type churnCounts struct {
	// hitRate[i] and evicted[i] are the cumulative cache hit rate and
	// invalidation count after churn step i.
	hitRate []float64
	evicted []float64
	final   routing.CacheStats
}

// churnPolicyRun replays the stream over a cached LiveRouter under one
// invalidation policy. nuke selects the baseline in which any mask
// change flushes the whole cache. The counts are pure functions of the
// seeded configuration — wall time never feeds a figure.
func churnPolicyRun(w ChurnWorkload, st *routing.State, stream []fault.Delta,
	working []core.MulticastSet, nuke bool) churnCounts {
	lr, err := fault.NewLiveRouter(w.Scheme, st, routing.Options{})
	if err != nil {
		panic(err)
	}
	cache := routing.NewPlanCache(4096)
	lr.AttachCache(cache)
	for _, k := range working {
		lr.PlanDegradedCached(k)
	}
	out := churnCounts{
		hitRate: make([]float64, 0, len(stream)),
		evicted: make([]float64, 0, len(stream)),
	}
	for _, d := range stream {
		lr.ApplyDelta(d)
		if nuke && !d.Empty() {
			cache.InvalidateAll()
		}
		for _, k := range working {
			if lr.NodeDead(k.Source) {
				continue
			}
			lr.PlanDegradedCached(k)
		}
		s := cache.Stats()
		out.hitRate = append(out.hitRate, s.HitRate())
		out.evicted = append(out.evicted, float64(s.Invalidations))
	}
	out.final = cache.Stats()
	return out
}

// ChurnTiming is the sequential wall-clock comparison for one workload:
// per-delta service restoration time, incremental versus full rebuild.
type ChurnTiming struct {
	Workload   string
	Steps      int
	WorkingSet int
	// IncrementalMs and RebuildMs are the total wall milliseconds spent
	// restoring full working-set service after each delta: the
	// incremental path applies the delta in O(|delta|) and re-plans only
	// evicted flows through the cache; the rebuild path builds a fresh
	// router, applies every active fault as one delta and re-plans every
	// flow without a cache.
	IncrementalMs, RebuildMs float64
	// Speedup is RebuildMs over IncrementalMs.
	Speedup float64
	// TargetedHitRate and NukeHitRate are the final cumulative cache hit
	// rates of the two invalidation policies (deterministic).
	TargetedHitRate, NukeHitRate float64
}

// churnTimingRun measures both paths over the identical stream and
// working set. Runs execute sequentially so the wall times are
// comparable.
func churnTimingRun(w ChurnWorkload, st *routing.State, stream []fault.Delta,
	working []core.MulticastSet) (incMs, rebMs float64) {
	lr, err := fault.NewLiveRouter(w.Scheme, st, routing.Options{})
	if err != nil {
		panic(err)
	}
	lr.AttachCache(routing.NewPlanCache(4096))
	for _, k := range working {
		lr.PlanDegradedCached(k) // untimed warmup: epoch-0 plans
	}
	start := time.Now()
	for _, d := range stream {
		lr.ApplyDelta(d)
		for _, k := range working {
			if lr.NodeDead(k.Source) {
				continue
			}
			lr.PlanDegradedCached(k)
		}
	}
	incMs = float64(time.Since(start).Microseconds()) / 1e3

	actives := activeEvents(stream)
	start = time.Now()
	for _, active := range actives {
		r, err := fault.NewLiveRouter(w.Scheme, st, routing.Options{})
		if err != nil {
			panic(err)
		}
		r.ApplyDelta(fault.Delta{Fail: active})
		for _, k := range working {
			if r.NodeDead(k.Source) {
				continue
			}
			r.PlanDegraded(k)
		}
	}
	rebMs = float64(time.Since(start).Microseconds()) / 1e3
	return incMs, rebMs
}

// activeEvents lists the faults active after each delta of the stream:
// re-failing active hardware and repairing healthy hardware change
// nothing.
func activeEvents(stream []fault.Delta) [][]fault.Event {
	var active []fault.Event
	out := make([][]fault.Event, 0, len(stream))
	for _, d := range stream {
		for _, e := range d.Fail {
			if !slices.Contains(active, e) {
				active = append(active, e)
			}
		}
		for _, e := range d.Repair {
			if i := slices.Index(active, e); i >= 0 {
				active = slices.Delete(active, i, i+1)
			}
		}
		out = append(out, slices.Clone(active))
	}
	return out
}

// ChurnSimResult is one delta-driven simulator run: a dynamic wormhole
// workload whose mid-run fault epochs kill channels and re-plan through
// the same LiveRouter delta path (fault.SimSchedule). Every field except
// wall time is a pure function of the seed.
type ChurnSimResult struct {
	Workload string
	// Epochs is the number of scheduled fault deltas.
	Epochs int
	wormsim.Result
}

func churnSim(w ChurnWorkload, topo topology.Topology, st *routing.State,
	o ChurnOptions) ChurnSimResult {
	fp := fault.NewPlan(topo, fault.Spec{
		Links:   w.SimFaults,
		Nodes:   2,
		Horizon: o.SimCycles / 2,
		Seed:    stats.DeriveSeed(o.Seed, "churn/sim/"+w.Name),
	})
	deltas := fault.PlanDeltas(fp)
	lr, err := fault.NewLiveRouter(w.Scheme, st, routing.Options{})
	if err != nil {
		panic(err)
	}
	sched, err := fault.SimSchedule(lr, deltas)
	if err != nil {
		panic(err)
	}
	res, err := wormsim.Run(wormsim.Config{
		Topology:               topo,
		Route:                  wormsim.RouteFuncOf(lr),
		MeanInterarrivalMicros: 10_000,
		AvgDests:               w.Dests,
		Seed:                   stats.DeriveSeed(o.Seed, "churn/run/"+w.Name),
		WarmupDeliveries:       50,
		BatchSize:              100,
		MinBatches:             1 << 30, // fixed cycle budget
		MaxCycles:              o.SimCycles,
		Check:                  o.Check,
		Faults:                 sched,
	})
	if err != nil {
		panic(fmt.Sprintf("churn sim %s: %v", w.Name, err))
	}
	return ChurnSimResult{Workload: w.Name, Epochs: len(deltas), Result: res}
}

// ChurnResult is the full study output. HitRate and Evictions are
// deterministic figures; Timings carry wall-clock measurements and the
// sim results' accounting is deterministic.
type ChurnResult struct {
	GOMAXPROCS int
	HitRate    *stats.Figure
	Evictions  *stats.Figure
	Timings    []ChurnTiming
	Sims       []ChurnSimResult
}

// ChurnStudy runs every workload: the two counting passes (targeted and
// nuke-everything invalidation) run under the sweep worker pool — the
// figures are byte-identical for every Parallel value — then the timing
// comparisons and simulator runs execute sequentially.
func ChurnStudy(o ChurnOptions) ChurnResult {
	out := ChurnResult{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		HitRate: &stats.Figure{ID: "Churn hitrate",
			Title:  "Plan-cache hit rate under fault/repair churn (targeted vs nuke-everything invalidation)",
			XLabel: "churn step", YLabel: "cumulative hit rate"},
		Evictions: &stats.Figure{ID: "Churn evictions",
			Title:  "Cumulative cache evictions under churn (targeted vs nuke-everything invalidation)",
			XLabel: "churn step", YLabel: "plans evicted"},
	}
	type prep struct {
		w       ChurnWorkload
		topo    topology.Topology
		st      *routing.State
		stream  []fault.Delta
		working []core.MulticastSet
	}
	var preps []prep
	var points []SweepPoint
	finals := make(map[string]routing.CacheStats)
	for _, w := range o.workloads() {
		topo := w.Build()
		st, err := routing.NewState(topo)
		if err != nil {
			panic(err)
		}
		stream := churnStream(topo, o.steps(w), stats.DeriveSeed(o.Seed, "churn/stream/"+w.Name))
		working := churnWorkingSet(topo, w.WorkingSet, w.Dests,
			stats.DeriveSeed(o.Seed, "churn/flows/"+w.Name))
		preps = append(preps, prep{w, topo, st, stream, working})
		for _, policy := range []struct {
			label string
			nuke  bool
		}{{"targeted", false}, {"nuke-all", true}} {
			w, policy := w, policy
			hs := out.HitRate.AddSeries(w.Name + "/" + policy.label)
			es := out.Evictions.AddSeries(w.Name + "/" + policy.label)
			points = append(points, SweepPoint{
				Run: func() any {
					return churnPolicyRun(w, st, stream, working, policy.nuke)
				},
				Commit: func(v any) {
					c := v.(churnCounts)
					for i := range c.hitRate {
						hs.Add(float64(i+1), c.hitRate[i])
						es.Add(float64(i+1), c.evicted[i])
					}
					finals[w.Name+"/"+policy.label] = c.final
				},
			})
		}
	}
	RunSweep(points, o.Parallel)
	for _, p := range preps {
		incMs, rebMs := churnTimingRun(p.w, p.st, p.stream, p.working)
		t := ChurnTiming{
			Workload:        p.w.Name,
			Steps:           len(p.stream),
			WorkingSet:      len(p.working),
			IncrementalMs:   incMs,
			RebuildMs:       rebMs,
			TargetedHitRate: finals[p.w.Name+"/targeted"].HitRate(),
			NukeHitRate:     finals[p.w.Name+"/nuke-all"].HitRate(),
		}
		if incMs > 0 {
			t.Speedup = rebMs / incMs
		}
		out.Timings = append(out.Timings, t)
		out.Sims = append(out.Sims, churnSim(p.w, p.topo, p.st, o))
	}
	return out
}
