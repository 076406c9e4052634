package sched

import (
	"fmt"
	"sort"

	"multicastnet/internal/routing"
	"multicastnet/internal/stats"
	"multicastnet/internal/workload"
	"multicastnet/internal/wormsim"
)

// ServeConfig drives one end-to-end serving run: a request stream
// batched into admission windows and simulated to completion in
// wormsim.
type ServeConfig struct {
	Service Config

	// Workload supplies the request stream: arrival cycles, sources and
	// destination sets. At most Requests requests are read from it.
	// Required.
	Workload workload.Source
	Requests int

	WindowCycles int64 // admission window length
	Flits        int   // message length
	MaxCycles    int64

	// Cache, when set, is the PlanCache backing Service.Router; Serve
	// reports its hit rate over the run.
	Cache *routing.PlanCache

	// Check runs the simulator's invariant audit
	// (wormsim.Network.CheckInvariants) after every window close and at
	// the end — the -simcheck mode. A violation, which only a simulator
	// bug can cause, panics with the cycle it was found at.
	Check bool
}

// ServeResult aggregates one serving run. Latencies are full
// request-to-completion cycles, queueing included.
type ServeResult struct {
	Requests  int // requests issued from the stream
	Completed int
	Cycles    int64

	ThroughputPerKCycle float64 // completed multicasts per 1000 cycles
	MeanLatency         float64
	P50Latency          float64
	P99Latency          float64
	MaxInFlight         int // peak submitted-but-incomplete requests

	Windows      uint64
	Deferrals    uint64
	ForceAdmits  uint64
	PeakLoad     int32
	PeakDilation int32

	CacheLookups uint64
	CacheHitRate float64

	Deadlocked bool
}

// Serve runs one configuration to completion (or MaxCycles) and returns
// the aggregate result. Output is a pure function of the config: the
// request stream, window schedule, and simulation are all deterministic,
// at any Service.Workers value. The offer ends when the stream is
// exhausted or Requests requests were issued.
func Serve(cfg ServeConfig) ServeResult {
	if cfg.Workload == nil {
		panic("sched: ServeConfig.Workload is required")
	}
	svc := New(cfg.Service)
	net := wormsim.NewNetwork(cfg.Service.Router.State().Topology())

	arrival := make([]int64, cfg.Requests)
	latencies := make([]float64, 0, cfg.Requests)
	completed := 0
	inFlight, maxInFlight := 0, 0
	net.OnCompleteTag(func(tag uint64, _ int64) {
		latencies = append(latencies, float64(net.Cycle()-arrival[tag]))
		completed++
		inFlight--
	})

	var before routing.CacheStats
	if cfg.Cache != nil {
		before = cfg.Cache.Stats()
	}

	issued := 0
	req, ok := cfg.Workload.Next()
	// done reports that every offered request completed.
	done := func() bool { return (!ok || issued >= cfg.Requests) && completed >= issued }
	var now int64
	nextWindow := cfg.WindowCycles
	for !done() && now < cfg.MaxCycles {
		for ok && issued < cfg.Requests && req.At <= now {
			if err := svc.Submit(uint64(issued), req.Src, req.Dests); err != nil {
				panic(err) // workload streams are valid by construction
			}
			arrival[issued] = req.At
			issued++
			inFlight++
			maxInFlight = max(maxInFlight, inFlight)
			req, ok = cfg.Workload.Next()
		}
		for nextWindow <= now {
			for _, a := range svc.CloseWindow() {
				net.InjectFlatTag(a.Flat, cfg.Flits, a.ID)
			}
			nextWindow += cfg.WindowCycles
			if cfg.Check {
				audit(net, "")
			}
		}
		if done() {
			break
		}
		if net.Idle() {
			// Nothing can move: jump to the next arrival or window close.
			target := nextWindow
			if ok && issued < cfg.Requests && req.At < target {
				target = req.At
			}
			if target <= now {
				target = now + 1
			}
			net.FastForward(target)
		} else {
			net.Step()
		}
		now = net.Cycle()
	}
	if cfg.Check {
		audit(net, " (end)")
	}

	res := ServeResult{
		Requests:     issued,
		Completed:    completed,
		Cycles:       now,
		MaxInFlight:  maxInFlight,
		Windows:      svc.Stats().Windows,
		Deferrals:    svc.Stats().Deferred,
		ForceAdmits:  svc.Stats().ForceAdmits,
		PeakLoad:     svc.Stats().PeakLoad,
		PeakDilation: svc.Stats().PeakDilation,
		CacheLookups: svc.Stats().Planned,
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
	if cfg.Cache != nil {
		after := cfg.Cache.Stats()
		hits := after.Hits - before.Hits
		misses := after.Misses - before.Misses
		if hits+misses > 0 {
			res.CacheHitRate = float64(hits) / float64(hits+misses)
		}
	}
	return res
}

// audit panics with the simulator's first invariant violation, if any.
func audit(net *wormsim.Network, when string) {
	if err := net.CheckInvariants(); err != nil {
		panic(fmt.Errorf("sched: cycle %d%s: %w", net.Cycle(), when, err))
	}
}
