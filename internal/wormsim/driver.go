package wormsim

import (
	"fmt"
	"math"

	"multicastnet/internal/core"
	"multicastnet/internal/dfr"
	"multicastnet/internal/routing"
	"multicastnet/internal/stats"
	"multicastnet/internal/topology"
)

// Injection is the routed form of one multicast, as produced by a routing
// scheme: any mix of path routes and tree routes, or their dense CSR form.
// Run injects a set Flat as is — route functions that serve cached flat
// plans (FlatRouteFuncOf) skip flattening — and flattens the routes
// otherwise, through one routing.Flattener per run.
type Injection struct {
	Paths []dfr.PathRoute
	Trees []dfr.TreeRoute
	Flat  *routing.FlatPlan
}

// RouteFunc routes a multicast set into worms. It is how the Chapter 6
// schemes plug into the simulator.
type RouteFunc func(k core.MulticastSet) Injection

// LiveRouteFunc routes with sight of the live network state (the
// Section 8.2 adaptive extension): the oracle reports current channel
// occupancy at injection time.
type LiveRouteFunc func(k core.MulticastSet, oracle dfr.ChannelOracle) Injection

// WorkloadFunc supplies an externally generated request stream: each
// call returns the next multicast and its injection cycle, in
// nondecreasing cycle order; ok == false ends the stream. It is how the
// workload layer (internal/workload) plugs into the simulator in place
// of the paper's per-node exponential generators.
type WorkloadFunc func() (at int64, k core.MulticastSet, ok bool)

// Config drives one dynamic simulation (Section 7.2).
type Config struct {
	Topology topology.Topology
	Route    RouteFunc
	// LiveRoute, when set, overrides Route with congestion-aware routing.
	LiveRoute LiveRouteFunc

	// MessageBytes is the message length L (the paper uses 128).
	MessageBytes int
	// FlitBytes sets the flit size (1 byte); one cycle moves one flit.
	FlitBytes int
	// BandwidthMBps is the channel speed in Mbytes/s (the paper uses
	// 20), fixing the real-time value of a cycle.
	BandwidthMBps float64

	// MeanInterarrivalMicros is the mean of the exponential
	// inter-message time at each node (the paper's base case is 300 us).
	// Ignored when Workload is set.
	MeanInterarrivalMicros float64
	// AvgDests is the average number of destinations per multicast;
	// destination counts are drawn uniformly from [1, 2*AvgDests-1].
	AvgDests int
	// UnicastFraction is the probability that a generated message is a
	// plain unicast (one destination) instead of a multicast — the mixed
	// unicast/multicast workload of the Section 8.2 interaction study.
	// Zero gives the paper's pure multicast workload.
	UnicastFraction float64

	// Seed makes the run reproducible.
	Seed uint64
	// WarmupDeliveries are discarded before statistics collection.
	WarmupDeliveries int
	// BatchSize and MinBatches parameterize the batch-means stopping
	// rule; the run stops when the 95% CI half-width is below CIFrac of
	// the mean (the paper uses 0.05), or at MaxCycles.
	BatchSize  int
	MinBatches int
	CIFrac     float64
	MaxCycles  int64

	// StallLimit is the no-progress cycle count after which the run is
	// declared deadlocked. Zero selects a safe default.
	StallLimit int64

	// Workload, when set, replaces the per-node exponential generators
	// (Section 7.2) with an externally supplied time-ordered request
	// stream: MeanInterarrivalMicros, AvgDests, and UnicastFraction are
	// ignored, and the run ends when the stream is exhausted and the
	// network has drained (or at MaxCycles / on deadlock). Workload
	// cycles are flit cycles, the simulator's native clock.
	Workload WorkloadFunc

	// Faults schedules mid-run hardware failures, sorted by Cycle. Each
	// activation fails the matching channels (killing the worms caught on
	// them) and can swap the routing function for the new fault epoch.
	Faults []ScheduledFault
	// Check runs the full invariant audit (CheckInvariants) at every
	// periodic deadlock-check boundary and at run end — the -simcheck
	// mode. Violations abort the run with an error.
	Check bool
}

// ScheduledFault is one fault-epoch activation inside a dynamic run.
type ScheduledFault struct {
	// Cycle is the activation time; due faults apply before injections.
	Cycle int64
	// Dead reports the channels failing at this epoch (nil fails none —
	// e.g. an epoch that only swaps routing).
	Dead func(c dfr.Channel) bool
	// Route, when non-nil, replaces the routing function from this epoch
	// on — how degraded-mode routing follows the fault schedule.
	Route RouteFunc
}

// validate fills defaults and checks consistency.
func (c *Config) validate() error {
	if c.Topology == nil || (c.Route == nil && c.LiveRoute == nil) {
		return fmt.Errorf("wormsim: config needs Topology and Route (or LiveRoute)")
	}
	if c.MessageBytes <= 0 {
		c.MessageBytes = 128
	}
	if c.FlitBytes <= 0 {
		c.FlitBytes = 1
	}
	if c.BandwidthMBps <= 0 {
		c.BandwidthMBps = 20
	}
	if c.MeanInterarrivalMicros <= 0 && c.Workload == nil {
		return fmt.Errorf("wormsim: MeanInterarrivalMicros must be positive")
	}
	if c.AvgDests <= 0 {
		c.AvgDests = 10
	}
	if c.WarmupDeliveries < 0 {
		return fmt.Errorf("wormsim: negative warmup")
	}
	if c.UnicastFraction < 0 || c.UnicastFraction > 1 {
		return fmt.Errorf("wormsim: UnicastFraction must be in [0,1]")
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 500
	}
	if c.MinBatches <= 0 {
		c.MinBatches = 10
	}
	if c.CIFrac <= 0 {
		c.CIFrac = 0.05
	}
	if c.MaxCycles <= 0 {
		c.MaxCycles = 5_000_000
	}
	if c.StallLimit <= 0 {
		// Far beyond any legitimate stall: several maximal messages
		// back to back.
		c.StallLimit = int64(20 * (c.MessageBytes/c.FlitBytes + c.Topology.Nodes()))
	}
	return nil
}

// flitMicros returns the real-time duration of one cycle.
func (c *Config) flitMicros() float64 {
	return float64(c.FlitBytes) / c.BandwidthMBps
}

// Result summarizes one dynamic run.
type Result struct {
	// AvgLatencyMicros is the mean per-destination network latency.
	AvgLatencyMicros float64
	// CIHalfWidthMicros is the 95% batch-means confidence half-width.
	CIHalfWidthMicros float64
	// AvgCompletionMicros is the mean whole-multicast latency (last
	// destination delivered).
	AvgCompletionMicros float64
	// Deliveries counts destination deliveries measured (after warmup).
	Deliveries int
	// AvgUnicastLatencyMicros is the mean latency over deliveries of
	// single-destination messages (0 when there were none). Only
	// populated when UnicastFraction > 0.
	AvgUnicastLatencyMicros float64
	// AvgMulticastLatencyMicros is the mean latency over deliveries of
	// multi-destination messages (0 when there were none). Only
	// populated when UnicastFraction > 0.
	AvgMulticastLatencyMicros float64
	// ThroughputPerMs is the measured delivery rate (destination
	// deliveries per millisecond, network-wide) — the throughput metric
	// of Section 2.1. It is computed over the measurement window only:
	// post-warmup deliveries divided by post-warmup time, consistent
	// with Deliveries.
	ThroughputPerMs float64
	// MulticastsSent counts injected multicasts.
	MulticastsSent int
	// Delivered counts every destination delivery, warmup included
	// (Deliveries is the post-warmup measurement subset).
	Delivered int
	// Lost counts destination deliveries dropped by fault-killed worms.
	Lost int
	// WormsKilled counts worms dropped by channel failures.
	WormsKilled int
	// Cycles is the simulated cycle count.
	Cycles int64
	// Deadlocked reports that the network stopped making progress with
	// worms still in flight.
	Deadlocked bool
	// Converged reports that the CI stopping rule was met.
	Converged bool
}

// Run executes a dynamic simulation: every node runs a multicast
// generator with exponential inter-arrival times and uniformly random
// destination sets, the configured scheme routes each multicast, and the
// flit-clock network carries the worms. It returns batch-means latency
// statistics.
func Run(cfg Config) (Result, error) {
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	topo := cfg.Topology
	rng := stats.NewRand(cfg.Seed)
	net := NewNetwork(topo)
	lengthFlits := cfg.MessageBytes / cfg.FlitBytes
	if lengthFlits < 1 {
		lengthFlits = 1
	}
	flitUs := cfg.flitMicros()

	latency := stats.NewBatchMeans(cfg.BatchSize)
	var completion, uniLatency, mcastLatency stats.Mean
	seen := 0
	var warmupEndCycle int64 // cycle at which the warmup window closed
	net.OnDeliveryDetail(func(_ topology.NodeID, cycles int64, size int) {
		seen++
		if seen > cfg.WarmupDeliveries {
			if seen == cfg.WarmupDeliveries+1 {
				warmupEndCycle = net.Cycle()
			}
			us := float64(cycles) * flitUs
			latency.Add(us)
			if size == 1 {
				uniLatency.Add(us)
			} else {
				mcastLatency.Add(us)
			}
		}
	})
	net.OnComplete(func(cycles int64) {
		completion.Add(float64(cycles) * flitUs)
	})

	res := Result{}
	net.OnLost(func(_ topology.NodeID, _ int) {
		res.Lost++
	})

	// Next-spawn events, one per node, on a min-heap ordered by
	// (cycle, node). Spawn times are strictly increasing per node and the
	// node id breaks ties, so events pop in exactly the order the
	// original per-cycle all-nodes scan visited them — the RNG stream,
	// and hence every result, is bit-identical. Workload mode replaces
	// the generators with a one-request lookahead on the stream.
	var interCycles float64
	var spawns spawnHeap
	var wlAt int64
	var wlSet core.MulticastSet
	var wlOK bool
	if cfg.Workload != nil {
		wlAt, wlSet, wlOK = cfg.Workload()
	} else {
		interCycles = cfg.MeanInterarrivalMicros / flitUs
		spawns = make(spawnHeap, 0, topo.Nodes())
		for i := 0; i < topo.Nodes(); i++ {
			spawns.push(spawnEvent{at: int64(rng.ExpFloat64(interCycles)), node: int32(i)})
		}
	}

	route := cfg.Route
	var fl routing.Flattener
	var plan routing.FlatPlan // refilled by fl for every route-form injection
	inject := func(k core.MulticastSet) {
		var inj Injection
		if cfg.LiveRoute != nil {
			inj = cfg.LiveRoute(k, net)
		} else {
			inj = route(k)
		}
		fp := inj.Flat
		if fp == nil {
			fp = fl.Flatten(&plan, routing.Plan{Paths: inj.Paths, Trees: inj.Trees})
		}
		net.InjectFlatTag(fp, lengthFlits, 0)
		res.MulticastsSent++
	}
	nextFault := 0
	var lastProgress int64
	checkedBatches := -1 // batch count at the last convergence test
	for net.Cycle() < cfg.MaxCycles {
		now := net.Cycle()
		// Activate due fault epochs before injections: a message spawned
		// at an epoch boundary is already routed by the new epoch.
		for nextFault < len(cfg.Faults) && cfg.Faults[nextFault].Cycle <= now {
			f := cfg.Faults[nextFault]
			if f.Dead != nil {
				net.FailWhere(f.Dead)
			}
			if f.Route != nil {
				route = f.Route
			}
			nextFault++
		}
		if cfg.Workload != nil {
			for wlOK && wlAt <= now {
				inject(wlSet)
				wlAt, wlSet, wlOK = cfg.Workload()
			}
			if !wlOK && net.ActiveWorms() == 0 {
				// Stream exhausted and network drained: the run is done.
				break
			}
		} else {
			for spawns[0].at <= now {
				ev := spawns.pop()
				ev.at += int64(rng.ExpFloat64(interCycles)) + 1
				avg := cfg.AvgDests
				if cfg.UnicastFraction > 0 && rng.Float64() < cfg.UnicastFraction {
					avg = -1 // sentinel: exactly one destination
				}
				inject(randomMulticast(topo, rng, topology.NodeID(ev.node), avg))
				spawns.push(ev)
			}
		}
		if net.Step() {
			lastProgress = net.Cycle()
		} else if net.ActiveWorms() > 0 && net.Cycle()-lastProgress > cfg.StallLimit {
			res.Deadlocked = true
			break
		}
		// A wait-for cycle is a permanent deadlock even while other
		// worms still progress elsewhere; check periodically.
		if net.Cycle()%64 == 0 {
			if net.ActiveWorms() > 1 && net.DetectDeadlock() != nil {
				res.Deadlocked = true
				break
			}
			if cfg.Check {
				if err := net.CheckInvariants(); err != nil {
					return res, fmt.Errorf("cycle %d: %w", net.Cycle(), err)
				}
			}
		}
		// Converged only changes when a batch completes; testing it per
		// batch instead of per cycle skips the t-interval arithmetic on
		// the millions of cycles in between.
		if nb := latency.Batches(); nb != checkedBatches {
			checkedBatches = nb
			if latency.Converged(cfg.CIFrac, cfg.MinBatches) {
				res.Converged = true
				break
			}
		}
		// Event-driven fast-forward: with no movable worm, the network
		// state is frozen until the next injection, so the intervening
		// cycles are no-ops. Jump the clock to the next event the loop
		// would react to — a spawn, a periodic deadlock check (all-blocked
		// worms are a wait-for cycle the %64 check will report), or the
		// stall limit — keeping cycle counts identical to stepping.
		if !net.movable() {
			if cfg.Workload != nil && !wlOK && net.ActiveWorms() == 0 {
				// Stream exhausted and network drained: don't fast-forward
				// to MaxCycles, the run ends at the drain cycle.
				break
			}
			target := cfg.MaxCycles
			if cfg.Workload != nil {
				if wlOK {
					target = wlAt
				}
			} else {
				target = spawns[0].at
			}
			if nextFault < len(cfg.Faults) && cfg.Faults[nextFault].Cycle < target {
				target = cfg.Faults[nextFault].Cycle
			}
			if net.ActiveWorms() > 0 {
				if b := (net.Cycle()/64+1)*64 - 1; b < target {
					target = b
				}
				if s := lastProgress + cfg.StallLimit; s < target {
					target = s
				}
			}
			if target > cfg.MaxCycles {
				target = cfg.MaxCycles
			}
			if target > net.Cycle() {
				net.cycle = target
			}
		}
	}
	if cfg.Check {
		if err := net.CheckInvariants(); err != nil {
			return res, fmt.Errorf("cycle %d (end): %w", net.Cycle(), err)
		}
	}
	res.AvgLatencyMicros = latency.Mean()
	res.CIHalfWidthMicros = latency.HalfWidth()
	if math.IsInf(res.CIHalfWidthMicros, 1) {
		res.CIHalfWidthMicros = 0
	}
	res.AvgCompletionMicros = completion.Value()
	res.AvgUnicastLatencyMicros = uniLatency.Value()
	res.AvgMulticastLatencyMicros = mcastLatency.Value()
	res.Deliveries = latency.Observations()
	res.Delivered = seen
	res.WormsKilled = net.KilledWorms()
	res.Cycles = net.Cycle()
	if cycles := res.Cycles - warmupEndCycle; cycles > 0 {
		elapsedMs := float64(cycles) * flitUs / 1000
		res.ThroughputPerMs = float64(latency.Observations()) / elapsedMs
	}
	return res, nil
}

// spawnEvent is one pending multicast generation: node fires at cycle at.
type spawnEvent struct {
	at   int64
	node int32
}

// spawnHeap is a binary min-heap of spawn events ordered by (at, node).
type spawnHeap []spawnEvent

func (h *spawnHeap) push(e spawnEvent) {
	*h = append(*h, e)
	s := *h
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if s[p].at < s[i].at || (s[p].at == s[i].at && s[p].node < s[i].node) {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
}

func (h *spawnHeap) pop() spawnEvent {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	*h = s
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(s) && (s[l].at < s[min].at || (s[l].at == s[min].at && s[l].node < s[min].node)) {
			min = l
		}
		if r < len(s) && (s[r].at < s[min].at || (s[r].at == s[min].at && s[r].node < s[min].node)) {
			min = r
		}
		if min == i {
			break
		}
		s[i], s[min] = s[min], s[i]
		i = min
	}
	return top
}

// randomMulticast draws a multicast set with a uniform destination count
// in [1, 2*avg-1] and uniform distinct destinations, as in the paper's
// simulation ("destinations determined by a uniform random number
// generator"). avg = -1 forces a unicast (exactly one destination).
func randomMulticast(t topology.Topology, rng *stats.Rand, src topology.NodeID, avg int) core.MulticastSet {
	if avg < 0 {
		raw := rng.Sample(t.Nodes(), 1, int(src))
		return core.MustMulticastSet(t, src, []topology.NodeID{topology.NodeID(raw[0])})
	}
	maxK := 2*avg - 1
	if maxK > t.Nodes()-1 {
		maxK = t.Nodes() - 1
	}
	k := 1
	if maxK > 1 {
		k = 1 + rng.Intn(maxK)
	}
	raw := rng.Sample(t.Nodes(), k, int(src))
	dests := make([]topology.NodeID, k)
	for i, v := range raw {
		dests[i] = topology.NodeID(v)
	}
	return core.MustMulticastSet(t, src, dests)
}
