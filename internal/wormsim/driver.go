package wormsim

import (
	"fmt"
	"math"

	"multicastnet/internal/core"
	"multicastnet/internal/dfr"
	"multicastnet/internal/routing"
	"multicastnet/internal/stats"
	"multicastnet/internal/topology"
	"multicastnet/internal/workload"
)

// Injection is the routed form of one multicast, as produced by a routing
// scheme: any mix of path routes and tree routes, or their dense CSR form.
// Run injects a set Flat as is — route functions that serve cached flat
// plans (FlatRouteFuncOf) skip flattening — and flattens the routes
// otherwise, through one routing.Flattener over cfg.Topology per run.
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

// Config drives one dynamic simulation (Section 7.2).
type Config struct {
	Topology topology.Topology
	Route    RouteFunc
	// LiveRoute, when set, overrides Route with congestion-aware routing.
	LiveRoute LiveRouteFunc

	// MessageBytes is the message length L (the paper uses 128).
	MessageBytes int

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

	// Workload, when set, replaces the per-node exponential generators
	// (Section 7.2) with an externally supplied time-ordered request
	// stream: MeanInterarrivalMicros, AvgDests, and UnicastFraction are
	// ignored, and the run ends when the stream is exhausted and the
	// network has drained (or at MaxCycles / on deadlock). Workload
	// cycles are flit cycles, the simulator's native clock. Requests are
	// routed as given, without re-validation.
	Workload workload.Source

	// Faults schedules mid-run hardware failures, sorted by Cycle (Run
	// rejects an out-of-order list). Each activation fails the matching
	// channels (killing the worms caught on them) and can swap the
	// routing function for the new fault epoch, unless LiveRoute is set.
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
	// on — how degraded-mode routing follows the fault schedule. Run
	// rejects it in a config whose LiveRoute would override it.
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
	for i, f := range c.Faults {
		if i > 0 && f.Cycle < c.Faults[i-1].Cycle {
			return fmt.Errorf("wormsim: Faults out of order: cycle %d after cycle %d", f.Cycle, c.Faults[i-1].Cycle)
		}
		if f.Route != nil && c.LiveRoute != nil {
			return fmt.Errorf("wormsim: fault epoch at cycle %d swaps Route, which LiveRoute overrides", f.Cycle)
		}
	}
	return nil
}

// The Section 7.2 time base: a flit is one byte and a channel carries
// 20 Mbytes/s, so one cycle, one flit over one channel, lasts FlitMicros
// microseconds.
const (
	FlitBytes     = 1
	BandwidthMBps = 20.0
	FlitMicros    = float64(FlitBytes) / BandwidthMBps
)

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

// Run executes a dynamic simulation: requests come from cfg.Workload or,
// when it is nil, from the paper's generators (every node with
// exponential inter-arrival times and uniformly random destination
// sets); the configured scheme routes each multicast, and the flit-clock
// network carries the worms. It returns batch-means latency statistics.
func Run(cfg Config) (Result, error) {
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	src := cfg.Workload
	if src == nil {
		src = newPaperSource(&cfg)
	}
	net := NewNetwork(cfg.Topology)
	lengthFlits := cfg.MessageBytes / FlitBytes
	if lengthFlits < 1 {
		lengthFlits = 1
	}
	// The no-progress cycle count after which the run is declared
	// deadlocked: far beyond any legitimate stall, several maximal
	// messages back to back.
	stallLimit := int64(20 * (cfg.MessageBytes/FlitBytes + cfg.Topology.Nodes()))

	latency := stats.NewBatchMeans(cfg.BatchSize)
	var completion, uniLatency, mcastLatency stats.Mean
	seen := 0
	var warmupEndCycle int64 // cycle at which the warmup window closed
	net.OnDelivery(func(_ topology.NodeID, cycles int64, size int) {
		seen++
		if seen > cfg.WarmupDeliveries {
			if seen == cfg.WarmupDeliveries+1 {
				warmupEndCycle = net.Cycle()
			}
			us := float64(cycles) * FlitMicros
			latency.Add(us)
			if size == 1 {
				uniLatency.Add(us)
			} else {
				mcastLatency.Add(us)
			}
		}
	})
	net.OnCompleteTag(func(_ uint64, cycles int64) {
		completion.Add(float64(cycles) * FlitMicros)
	})

	res := Result{}
	net.OnLost(func(_ topology.NodeID, _ int) {
		res.Lost++
	})

	req, ok := src.Next()
	route := cfg.Route
	fl := routing.NewFlattener(cfg.Topology)
	var plan routing.FlatPlan // refilled by fl for every route-form injection
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
		for ok && req.At <= now {
			k := core.MulticastSet{Source: req.Src, Dests: req.Dests}
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
			req, ok = src.Next()
		}
		if !ok && net.ActiveWorms() == 0 {
			// Stream exhausted and network drained: the run is done.
			break
		}
		if net.Step() {
			lastProgress = net.Cycle()
		} else if net.ActiveWorms() > 0 && net.Cycle()-lastProgress > stallLimit {
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
		// would react to — a request, a periodic deadlock check (all-blocked
		// worms are a wait-for cycle the %64 check will report), or the
		// stall limit — keeping cycle counts identical to stepping.
		if !net.movable() {
			if !ok && net.ActiveWorms() == 0 {
				// Stream exhausted and network drained: don't fast-forward
				// to MaxCycles, the run ends at the drain cycle.
				break
			}
			target := cfg.MaxCycles
			if ok {
				target = req.At
			}
			if nextFault < len(cfg.Faults) && cfg.Faults[nextFault].Cycle < target {
				target = cfg.Faults[nextFault].Cycle
			}
			if net.ActiveWorms() > 0 {
				if b := (net.Cycle()/64+1)*64 - 1; b < target {
					target = b
				}
				if s := lastProgress + stallLimit; s < target {
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
		elapsedMs := float64(cycles) * FlitMicros / 1000
		res.ThroughputPerMs = float64(latency.Observations()) / elapsedMs
	}
	return res, nil
}

// paperSource is the paper's traffic (Section 7.2) as a request stream:
// every node generates multicasts with exponential inter-arrival times
// and uniformly random destination sets. Next-spawn events, one per
// node, sit on a min-heap ordered by (cycle, node). Spawn times are
// strictly increasing per node and the node id breaks ties, so events
// pop in exactly the order a per-cycle all-nodes scan visits them, and
// every RNG draw happens in that order.
type paperSource struct {
	rng      *stats.Rand
	inter    float64 // mean inter-arrival gap per node, cycles
	avgDests int
	unicast  float64 // UnicastFraction
	spawns   spawnHeap
	draw     destDraw
}

func newPaperSource(cfg *Config) *paperSource {
	n := cfg.Topology.Nodes()
	s := &paperSource{
		rng:      stats.NewRand(cfg.Seed),
		inter:    cfg.MeanInterarrivalMicros / FlitMicros,
		avgDests: cfg.AvgDests,
		unicast:  cfg.UnicastFraction,
		spawns:   make(spawnHeap, 0, n),
		draw:     newDestDraw(n),
	}
	for i := 0; i < n; i++ {
		s.spawns.push(spawnEvent{at: int64(s.rng.ExpFloat64(s.inter)), node: int32(i)})
	}
	return s
}

// Next pops the earliest spawn, schedules that node's next one, and
// draws the multicast. The stream never ends.
func (s *paperSource) Next() (workload.Request, bool) {
	ev := s.spawns.pop()
	at := ev.at
	ev.at += int64(s.rng.ExpFloat64(s.inter)) + 1
	avg := s.avgDests
	if s.unicast > 0 && s.rng.Float64() < s.unicast {
		avg = -1 // sentinel: exactly one destination
	}
	src := topology.NodeID(ev.node)
	dests := s.draw.dests(s.rng, src, avg)
	s.spawns.push(ev)
	return workload.Request{At: at, Src: src, Dests: dests}, true
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

// destDraw draws the paper's random destination sets: a uniform count
// in [1, 2*avg-1] (at most every other node) and uniform distinct
// destinations other than the source, as in the paper's simulation
// ("destinations determined by a uniform random number generator").
// It makes the RNG calls of stats.Rand.Sample in the same order, and
// rejects repeats and the source by epoch-stamped node marks instead of
// Sample's maps.
type destDraw struct {
	mark  []uint8 // per node: the draw that last took it
	epoch uint8
}

// newDestDraw returns a draw over nodes nodes. Its marks cost one byte a
// node; they are cleared once every 255 draws, when the epoch wraps.
func newDestDraw(nodes int) destDraw {
	return destDraw{mark: make([]uint8, nodes)}
}

// dests returns one fresh slice of distinct destinations for src. avg =
// -1 forces a unicast, and draws no count. The slice is the request's
// own: a plan may keep it.
func (d *destDraw) dests(rng *stats.Rand, src topology.NodeID, avg int) []topology.NodeID {
	n := len(d.mark)
	if src < 0 || int(src) >= n {
		panic(fmt.Sprintf("wormsim: source %d out of range for %d nodes", src, n))
	}
	k := 1
	if avg >= 0 {
		if maxK := min(2*avg-1, n-1); maxK > 1 {
			k = 1 + rng.Intn(maxK)
		}
	}
	if k > n-1 {
		panic("wormsim: more destinations than nodes besides the source")
	}
	if d.epoch++; d.epoch == 0 { // wrapped: no mark may match a new epoch
		clear(d.mark)
		d.epoch = 1
	}
	d.mark[src] = d.epoch
	out := make([]topology.NodeID, k)
	for i := 0; i < k; {
		v := rng.Intn(n)
		if d.mark[v] == d.epoch {
			continue // the source or a repeat
		}
		d.mark[v] = d.epoch
		out[i] = topology.NodeID(v)
		i++
	}
	return out
}
