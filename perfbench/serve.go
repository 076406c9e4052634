package main

import (
	"fmt"
	"reflect"
	"sort"

	"multicastnet/internal/core"
	"multicastnet/internal/routing"
	"multicastnet/internal/sched"
	"multicastnet/internal/stats"
	"multicastnet/internal/topology"
	"multicastnet/internal/workload"
	"multicastnet/internal/wormsim"
)

// The serve workload is the request path of the scheduling service. At
// each mean gap of a load ladder, recorded Zipf request streams arrive
// open-loop in simulated cycles; each is submitted to a fresh
// sched.Service, planned by dual-path routing through a fresh PlanCache,
// packed into admission windows and drained in the wormhole simulator.
const (
	serveSide      = 64
	serveScheme    = "dual-path"
	serveBudget    = 220
	serveWindow    = 256
	serveFlits     = 32
	serveGroups    = 256
	serveAvgDests  = 4
	serveZipfS     = 1.2
	serveP99Limit  = 4096 // cycles: the latency limit of the capacity metric
	serveMaxCycles = 50_000_000
)

// serveBench sizes the serve workload. Each gap serves several streams,
// each over its own seed-drawn group pool: how much a stream costs
// depends on its pool, and averaging over pools keeps the work of a run
// nearly the same at every seed.
type serveBench struct {
	requests int       // requests per stream
	streams  int       // streams per gap
	gaps     []float64 // mean arrival gaps in cycles, lightest load first
}

// serveInput is one timed run's inputs and fresh state: per stream, the
// recorded requests, a router and an empty plan cache.
type serveInput struct {
	tr      *tracer
	streams []serveStream
}

type serveStream struct {
	gap   float64
	trace *workload.Trace
	flat  *routing.FlatRouter
	cache *routing.PlanCache
}

func (b serveBench) setup(tr *tracer, seed uint64) (phase, error) {
	s := tr.begin(spanTopologyBuild, -1)
	topo := topology.NewMesh2D(serveSide, serveSide)
	tr.end(s)
	s = tr.begin(spanStateBuild, -1)
	st, err := routing.NewState(topo)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	in := &serveInput{tr: tr}
	for _, gap := range b.gaps {
		for i := 0; i < b.streams; i++ {
			r, err := routing.New(serveScheme, st)
			if err != nil {
				return nil, err
			}
			if tr != nil {
				r = plannedRouter{Router: r, tr: tr}
			}
			cache := routing.NewPlanCache(0)
			spec := workload.Spec{
				Model:    workload.ModelZipf,
				Arrivals: workload.ArrivalsPoisson,
				Requests: b.requests,
				Groups:   serveGroups,
				AvgDests: serveAvgDests,
				ZipfS:    serveZipfS,
				MeanGap:  gap,
			}
			s := tr.begin(spanRecord, -1)
			trace, err := workload.Record(topo, spec, stats.DeriveSeed(seed, fmt.Sprintf("serve/gap/%g/%d", gap, i)))
			tr.end(s)
			if err != nil {
				return nil, err
			}
			in.streams = append(in.streams, serveStream{gap: gap, trace: trace, flat: routing.Flat(r, cache), cache: cache})
		}
	}
	return in, nil
}

// run serves every stream: through sched.Serve untraced, through the
// traced mirror of its loop when traced.
func (in *serveInput) run() (output, error) {
	res := make([]sched.ServeResult, len(in.streams))
	counters := map[string]float64{}
	for i, st := range in.streams {
		cfg := sched.ServeConfig{
			Service:      sched.Config{Router: st.flat, Budget: serveBudget, Workers: 1},
			Requests:     len(st.trace.Reqs),
			WindowCycles: serveWindow,
			Flits:        serveFlits,
			MaxCycles:    serveMaxCycles,
			Workload:     st.trace.Source(),
			Cache:        st.cache,
		}
		if in.tr == nil {
			res[i] = sched.Serve(cfg)
			continue
		}
		r, err := mirrorServe(in.tr, cfg, counters)
		if err != nil {
			return output{}, err
		}
		res[i] = r
	}
	for _, st := range in.streams {
		cs := st.cache.Stats()
		counters["routing.cache_hits"] += float64(cs.Hits)
		counters["routing.cache_misses"] += float64(cs.Misses)
		counters["routing.cache_evictions"] += float64(cs.Evictions)
	}
	counters["routing.cache_hit_ratio"] = ratio(counters["routing.cache_hits"],
		counters["routing.cache_hits"]+counters["routing.cache_misses"])
	counters["sched.admit_ratio"] = ratio(counters["sched.admitted"],
		counters["sched.admitted"]+counters["sched.deferred"])

	out := output{result: res, counters: counters, outcome: map[string]float64{}}
	// Per gap: whether every request completed, and the medians over the
	// gap's streams of throughput and latency percentiles.
	type gapResult struct {
		complete      bool
		thr, p50, p99 []float64
	}
	byGap := map[float64]*gapResult{}
	heaviest := in.streams[0].gap
	for i, st := range in.streams {
		r := res[i]
		out.attempted += r.Requests
		out.failed += r.Requests - r.Completed
		g := byGap[st.gap]
		if g == nil {
			g = &gapResult{complete: true}
			byGap[st.gap] = g
		}
		g.complete = g.complete && r.Completed == r.Requests && !r.Deadlocked
		g.thr = append(g.thr, r.ThroughputPerKCycle)
		g.p50 = append(g.p50, r.P50Latency)
		g.p99 = append(g.p99, r.P99Latency)
		heaviest = min(heaviest, st.gap)
	}
	for gap, g := range byGap {
		if load := 1000 / gap; g.complete && median(g.p99) <= serveP99Limit && load > out.outcome["sim_capacity_per_kcycle"] {
			out.outcome["sim_capacity_per_kcycle"] = load
		}
	}
	out.outcome["sim_thr_per_kcycle"] = median(byGap[heaviest].thr)
	out.outcome["sim_p50_cycles"] = median(byGap[heaviest].p50)
	out.outcome["sim_p99_cycles"] = median(byGap[heaviest].p99)
	return out, nil
}

// check serves the same streams through the traced mirror and requires
// sched.Serve's result, field for field, for every stream.
func (b serveBench) check(seed uint64, first output) (int, int, error) {
	ph, err := b.setup(newTracer(), seed)
	if err != nil {
		return 0, 0, err
	}
	out, err := ph.run()
	if err != nil {
		return 0, 0, err
	}
	want, got := first.result.([]sched.ServeResult), out.result.([]sched.ServeResult)
	failed := 0
	var firstErr error
	streams := ph.(*serveInput).streams
	for i := range want {
		if !reflect.DeepEqual(want[i], got[i]) {
			failed++
			if firstErr == nil {
				firstErr = fmt.Errorf("gap %g: traced mirror %+v, sched.Serve %+v", streams[i].gap, got[i], want[i])
			}
		}
	}
	return len(want), failed, firstErr
}

// plannedRouter times every plan computation. ID, Scheme and State are
// the wrapped router's, so plan-cache keys do not change.
type plannedRouter struct {
	routing.Router
	tr *tracer
}

func (r plannedRouter) PlanSet(k core.MulticastSet) routing.Plan {
	s := r.tr.begin(spanPlan, -1)
	p := r.Router.PlanSet(k)
	r.tr.end(s)
	return p
}

// mirrorServe is sched.Serve's workload loop written with the public
// calls of sched and wormsim only, with a span around each call. It adds
// the service counters to counters. Plan spans carry no request id: one
// plan serves every request of the window with the same set.
func mirrorServe(tr *tracer, cfg sched.ServeConfig, counters map[string]float64) (sched.ServeResult, error) {
	svc := sched.New(cfg.Service)
	net := wormsim.NewNetwork(cfg.Service.Router.State().Topology())
	arrival := make([]int64, cfg.Requests)
	latencies := make([]float64, 0, cfg.Requests)
	completed, inFlight, maxInFlight := 0, 0, 0
	net.OnCompleteTag(func(tag uint64, _ int64) {
		latencies = append(latencies, float64(net.Cycle()-arrival[tag]))
		completed++
		inFlight--
	})
	before := cfg.Cache.Stats()

	issued := 0
	next := func() (workload.Request, bool) {
		s := tr.begin(spanNext, int64(issued))
		r, ok := cfg.Workload.Next()
		tr.end(s)
		return r, ok
	}
	req, ok := next()
	done := func() bool { return (!ok || issued >= cfg.Requests) && completed >= issued }
	var now, late int64
	nextWindow := cfg.WindowCycles
	for !done() && now < cfg.MaxCycles {
		for ok && issued < cfg.Requests && req.At <= now {
			late = max(late, now-req.At)
			s := tr.begin(spanSubmit, int64(issued))
			err := svc.Submit(uint64(issued), req.Src, req.Dests)
			tr.end(s)
			if err != nil {
				return sched.ServeResult{}, err
			}
			arrival[issued] = req.At
			issued++
			inFlight++
			maxInFlight = max(maxInFlight, inFlight)
			req, ok = next()
		}
		for nextWindow <= now {
			s := tr.begin(spanCloseWindow, -1)
			admitted := svc.CloseWindow()
			tr.end(s)
			for _, a := range admitted {
				s := tr.begin(spanInject, int64(a.ID))
				net.InjectFlatTag(a.Flat, cfg.Flits, a.ID)
				tr.end(s)
			}
			nextWindow += cfg.WindowCycles
		}
		if done() {
			break
		}
		if net.Idle() {
			target := nextWindow
			if ok && issued < cfg.Requests && req.At < target {
				target = req.At
			}
			if target <= now {
				target = now + 1
			}
			s := tr.begin(spanFastForward, -1)
			net.FastForward(target)
			tr.end(s)
		} else {
			s := tr.begin(spanStep, -1)
			net.Step()
			tr.end(s)
		}
		now = net.Cycle()
	}

	st := svc.Stats()
	res := sched.ServeResult{
		Requests:     issued,
		Completed:    completed,
		Cycles:       now,
		MaxInFlight:  maxInFlight,
		Windows:      st.Windows,
		Deferrals:    st.Deferred,
		ForceAdmits:  st.ForceAdmits,
		PeakLoad:     st.PeakLoad,
		PeakDilation: st.PeakDilation,
		CacheLookups: st.Planned,
		Deadlocked:   net.Idle() && net.ActiveWorms() > 0,
	}
	if now > 0 {
		res.ThroughputPerKCycle = float64(completed) / float64(now) * 1000
	}
	if len(latencies) > 0 {
		sum := 0.0
		for _, l := range latencies {
			sum += l
		}
		res.MeanLatency = sum / float64(len(latencies))
		sort.Float64s(latencies)
		res.P50Latency = stats.Percentile(latencies, 0.50)
		res.P99Latency = stats.Percentile(latencies, 0.99)
	}
	after := cfg.Cache.Stats()
	if hits, misses := after.Hits-before.Hits, after.Misses-before.Misses; hits+misses > 0 {
		res.CacheHitRate = float64(hits) / float64(hits+misses)
	}

	counters["sched.windows"] += float64(st.Windows)
	counters["sched.admitted"] += float64(st.Admitted)
	counters["sched.deferred"] += float64(st.Deferred)
	counters["sched.force_admits"] += float64(st.ForceAdmits)
	counters["sched.max_in_flight"] = max(counters["sched.max_in_flight"], float64(maxInFlight))
	counters["workload.late_cycles_max"] = max(counters["workload.late_cycles_max"], float64(late))
	counters["wormsim.cycles"] += float64(now)
	return res, nil
}
