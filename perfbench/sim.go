package main

import (
	"fmt"
	"reflect"

	"multicastnet/internal/core"
	"multicastnet/internal/routing"
	"multicastnet/internal/stats"
	"multicastnet/internal/topology"
	"multicastnet/internal/wormsim"
)

// The sim workload is the paper's dynamic simulation (Fig. 7.11): every
// node of the single-channel 8x8 mesh generates 128-byte multicasts with
// exponential gaps of mean 300 us, routed by the dual-, multi- and
// fixed-path schemes at destination counts from light load to
// saturation. Each run routes through its own fresh plan cache.
const (
	simSide           = 8
	simInterarrivalUs = 300
	simMessageBytes   = 128
	simWarmup         = 500
	simBatch          = 500
	// simCIFrac is far below any reachable confidence half-width, so no
	// run stops early: every run simulates exactly its MaxCycles, and the
	// simulated work is the same at every seed.
	simCIFrac = 1e-9
)

var simSchemes = []string{"dual-path", "multi-path", "fixed-path"}

// simBench sizes the sim workload.
type simBench struct {
	dests     []int // average destination counts
	maxCycles int64 // cycles simulated per run
}

// simPoint is one simulation of the sweep.
type simPoint struct {
	scheme       string
	dests        int
	seed         uint64
	deadlockFree bool
	route        wormsim.RouteFunc
	cache        *routing.PlanCache
}

type simInput struct {
	tr        *tracer
	topo      topology.Topology
	points    []simPoint
	maxCycles int64
}

func (b simBench) setup(tr *tracer, seed uint64) (phase, error) {
	s := tr.begin(spanTopologyBuild, -1)
	topo := topology.NewMesh2D(simSide, simSide)
	tr.end(s)
	s = tr.begin(spanStateBuild, -1)
	st, err := routing.NewState(topo)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	in := &simInput{tr: tr, topo: topo, maxCycles: b.maxCycles}
	for _, name := range simSchemes {
		info, err := routing.Lookup(name)
		if err != nil {
			return nil, err
		}
		r, err := info.Build(st, routing.Options{})
		if err != nil {
			return nil, err
		}
		if tr != nil {
			r = plannedRouter{Router: r, tr: tr}
		}
		for _, d := range b.dests {
			cache := routing.NewPlanCache(0)
			route := wormsim.RouteFuncOf(routing.Cached(r, cache))
			if tr != nil {
				route = tracedRoute(tr, route)
			}
			in.points = append(in.points, simPoint{
				scheme:       name,
				dests:        d,
				seed:         stats.DeriveSeed(seed, fmt.Sprintf("sim/%s/%d", name, d)),
				deadlockFree: info.DeadlockFree,
				route:        route,
				cache:        cache,
			})
		}
	}
	return in, nil
}

// tracedRoute wraps the route function handed to wormsim.Run in a span;
// a span's request id is the multicast's sequence number in its run.
func tracedRoute(tr *tracer, route wormsim.RouteFunc) wormsim.RouteFunc {
	var seq int64
	return func(k core.MulticastSet) wormsim.Injection {
		s := tr.begin(spanRoute, seq)
		seq++
		inj := route(k)
		tr.end(s)
		return inj
	}
}

func (in *simInput) run() (output, error) {
	res := make([]wormsim.Result, len(in.points))
	out := output{result: res, counters: map[string]float64{}, outcome: map[string]float64{}}
	latency, thr := 0.0, 0.0
	for i, p := range in.points {
		s := in.tr.begin(spanRun, int64(i))
		r, err := wormsim.Run(wormsim.Config{
			Topology:               in.topo,
			Route:                  p.route,
			MessageBytes:           simMessageBytes,
			MeanInterarrivalMicros: simInterarrivalUs,
			AvgDests:               p.dests,
			Seed:                   p.seed,
			WarmupDeliveries:       simWarmup,
			BatchSize:              simBatch,
			CIFrac:                 simCIFrac,
			MaxCycles:              in.maxCycles,
		})
		in.tr.end(s)
		if err != nil {
			return output{}, fmt.Errorf("%s at %d destinations: %w", p.scheme, p.dests, err)
		}
		res[i] = r
		out.attempted++
		if r.Deadlocked && p.deadlockFree {
			out.failed++
		}
		latency += r.AvgLatencyMicros
		thr += r.ThroughputPerMs
		cs := p.cache.Stats()
		out.counters["routing.cache_hits"] += float64(cs.Hits)
		out.counters["routing.cache_misses"] += float64(cs.Misses)
		out.counters["routing.cache_evictions"] += float64(cs.Evictions)
		out.counters["wormsim.cycles"] += float64(r.Cycles)
		out.counters["wormsim.multicasts"] += float64(r.MulticastsSent)
		out.counters["wormsim.deliveries"] += float64(r.Delivered)
	}
	out.counters["routing.cache_hit_ratio"] = ratio(out.counters["routing.cache_hits"],
		out.counters["routing.cache_hits"]+out.counters["routing.cache_misses"])
	out.outcome["sim_latency_us"] = latency / float64(len(in.points))
	out.outcome["sim_thr_per_ms"] = thr
	return out, nil
}

// check runs the sweep again traced and requires the untraced results.
// Deadlocks of deadlock-free schemes are counted by run itself.
func (b simBench) check(seed uint64, first output) (int, int, error) {
	ph, err := b.setup(newTracer(), seed)
	if err != nil {
		return 0, 0, err
	}
	out, err := ph.run()
	if err != nil {
		return 0, 0, err
	}
	want, got := first.result.([]wormsim.Result), out.result.([]wormsim.Result)
	points := ph.(*simInput).points
	failed := 0
	var firstErr error
	for i := range want {
		if !reflect.DeepEqual(want[i], got[i]) {
			failed++
			if firstErr == nil {
				firstErr = fmt.Errorf("%s at %d destinations: traced %+v, untraced %+v",
					points[i].scheme, points[i].dests, got[i], want[i])
			}
		}
	}
	return len(want), failed, firstErr
}
