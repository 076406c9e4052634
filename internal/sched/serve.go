package sched

import (
	"sort"

	"multicastnet/internal/routing"
	"multicastnet/internal/stats"
	"multicastnet/internal/topology"
	"multicastnet/internal/workload"
	"multicastnet/internal/wormsim"
)

// ServeConfig drives one end-to-end serving run: a Poisson stream of
// requests drawn from a finite pool of multicast groups (a few hot
// groups receiving most traffic — the production profile), batched into
// admission windows and simulated to completion in wormsim.
type ServeConfig struct {
	Service Config

	Requests int // total requests offered
	Groups   int // distinct (source, destinations) groups in the pool
	AvgDests int // destination count is uniform in [1, 2*AvgDests-1]

	// MeanInterarrival is the mean cycle gap between request arrivals
	// (global Poisson process); smaller = higher offered load.
	MeanInterarrival float64

	WindowCycles int64 // admission window length
	Flits        int   // message length
	Seed         uint64
	// PoolSeed, when nonzero, draws the group pool from its own stream so
	// sweeps can hold the pool fixed while Seed varies the arrivals.
	PoolSeed  uint64
	MaxCycles int64

	// Workload, when set, supplies the request stream — arrival cycles,
	// sources, and destination sets — in place of the built-in uniform
	// group pool with Poisson arrivals; Groups, AvgDests,
	// MeanInterarrival, Seed, and PoolSeed are then ignored. At most
	// Requests requests are read from the source.
	Workload workload.Source

	// Cache, when set, is the PlanCache backing Service.Router; Serve
	// reports its hit rate over the run.
	Cache *routing.PlanCache
}

// ServeResult aggregates one serving run. Latencies are full
// request-to-completion cycles, queueing included.
type ServeResult struct {
	Requests  int
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
// at any Service.Workers value.
func Serve(cfg ServeConfig) ServeResult {
	topo := cfg.Service.Router.State().Topology()
	svc := New(cfg.Service)
	rng := stats.NewRand(cfg.Seed)

	// Group pool: destination sets generated once, reused by many
	// requests — the dedup and cache locality the service exploits. A
	// configured workload source replaces the pool entirely.
	var srcs []topology.NodeID
	var dests [][]topology.NodeID
	var wlReq workload.Request
	var wlOK bool
	if cfg.Workload != nil {
		wlReq, wlOK = cfg.Workload.Next()
	} else {
		poolRng := rng
		if cfg.PoolSeed != 0 {
			poolRng = stats.NewRand(cfg.PoolSeed)
		}
		srcs = make([]topology.NodeID, cfg.Groups)
		dests = make([][]topology.NodeID, cfg.Groups)
		for g := range srcs {
			src := topology.NodeID(poolRng.Intn(topo.Nodes()))
			maxK := 2*cfg.AvgDests - 1
			if maxK > topo.Nodes()-1 {
				maxK = topo.Nodes() - 1
			}
			k := 1
			if maxK > 1 {
				k = 1 + poolRng.Intn(maxK)
			}
			raw := poolRng.Sample(topo.Nodes(), k, int(src))
			ds := make([]topology.NodeID, k)
			for i, v := range raw {
				ds[i] = topology.NodeID(v)
			}
			srcs[g], dests[g] = src, ds
		}
	}

	net := wormsim.NewNetwork(topo)

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

	var now int64
	clock := 0.0 // fractional arrival cursor
	if cfg.Workload == nil {
		clock += rng.ExpFloat64(cfg.MeanInterarrival)
	}
	issued := 0
	// done reports that every offered request completed. With a workload
	// source the offer ends when the stream is exhausted (or Requests is
	// reached); the built-in generator always offers exactly Requests.
	done := func() bool {
		if cfg.Workload != nil {
			return (!wlOK || issued >= cfg.Requests) && completed >= issued
		}
		return completed >= cfg.Requests
	}
	submit := func(at int64, src topology.NodeID, ds []topology.NodeID) {
		if err := svc.Submit(uint64(issued), src, ds); err != nil {
			panic(err) // generated sets are valid by construction
		}
		arrival[issued] = at
		issued++
		inFlight++
		if inFlight > maxInFlight {
			maxInFlight = inFlight
		}
	}
	nextWindow := cfg.WindowCycles
	for !done() && now < cfg.MaxCycles {
		if cfg.Workload != nil {
			for wlOK && issued < cfg.Requests && wlReq.At <= now {
				submit(wlReq.At, wlReq.Src, wlReq.Dests)
				wlReq, wlOK = cfg.Workload.Next()
			}
		} else {
			for issued < cfg.Requests && int64(clock) <= now {
				g := rng.Intn(cfg.Groups)
				submit(int64(clock), srcs[g], dests[g])
				clock += rng.ExpFloat64(cfg.MeanInterarrival)
			}
		}
		for nextWindow <= now {
			for _, a := range svc.CloseWindow() {
				net.InjectFlatTag(a.Flat, cfg.Flits, a.ID)
			}
			nextWindow += cfg.WindowCycles
		}
		if done() {
			break
		}
		if net.Idle() {
			// Nothing can move: jump to the next arrival or window close.
			target := nextWindow
			if cfg.Workload != nil {
				if wlOK && issued < cfg.Requests && wlReq.At < target {
					target = wlReq.At
				}
			} else if issued < cfg.Requests && int64(clock) < target {
				target = int64(clock)
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

	offered := cfg.Requests
	if cfg.Workload != nil {
		offered = issued
	}
	res := ServeResult{
		Requests:     offered,
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
