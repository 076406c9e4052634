// Package sched is the concurrent multicast scheduling service: a
// long-lived layer over internal/routing that ingests streams of
// multicast requests, batches them into admission windows, plans each
// window through its router's PlanCache with a worker pool, and packs the
// window under a congestion+dilation budget (Haeupler/Hershkowitz/Wajc:
// simultaneous multicasts complete in roughly congestion + dilation, so
// the packer bounds exactly that sum). Requests whose plans would push
// the window past the budget are deferred to the next window; a bounded
// deferral count force-admits stragglers so nothing starves.
//
// The steady-state window path — Submit through CloseWindow with a warm
// PlanCache — allocates nothing: requests live in a recycled item arena,
// plan lookups go through FlatProbeBuf's reusable key buffer, and
// per-channel load accounting uses one load word per channel id, indexed
// directly by the ids each FlatPlan carries (the topology's arithmetic
// dfr.ChannelNumbering, resolved once when the plan was flattened), so
// counting a hop's load looks nothing up; every word is back at 0 when
// a window closes. A plan is one list of routes crossed level by level,
// paths and trees alike, so its load is one walk over its channel ids
// and its dilation the most levels any route crosses.
//
// Serve drives one request stream end to end, into a wormsim.Network,
// in a pooled engine that it resets rather than rebuilds for each
// stream: Service.Reset and wormsim.Network.Reset keep every array's
// capacity, so a process serving stream after stream allocates the
// service's and the network's state once per goroutine.
//
// Determinism: for a given submission sequence the admitted stream,
// deferral counts, and PlanCache counters are identical at every worker
// count. Lookups and installs run serially in canonical order (one
// lookup per distinct destination set per window — duplicates share the
// representative's plan); only the pure compute of cache misses fans out
// to the pool.
package sched

import (
	"fmt"
	"sync"

	"multicastnet/internal/core"
	"multicastnet/internal/dfr"
	"multicastnet/internal/routing"
	"multicastnet/internal/topology"
)

// Config parameterizes a Service.
type Config struct {
	// Router plans requests; its PlanCache (if any) is the dedupe and
	// memoization layer. Required.
	Router *routing.FlatRouter

	// Budget bounds each window's estimated completion: a request is
	// admitted only while (peak channel load + peak dilation) of the
	// window stays within Budget. 0 disables packing — every pending
	// request is admitted in arrival order (the naive FIFO baseline).
	Budget int32

	// MaxDefer force-admits a request that has been deferred this many
	// times, bounding queueing unfairness. 0 defaults to 8.
	MaxDefer int

	// Workers sizes the planning pool for cache misses. 0 or 1 plans
	// inline (the allocation-free path); any value produces identical
	// output.
	Workers int
}

// Admission is one scheduled request of a packed window.
type Admission struct {
	ID   uint64
	Flat *routing.FlatPlan
}

// Stats are cumulative service counters. Deferred counts deferral
// events, so one request deferred three times contributes three.
type Stats struct {
	Submitted    uint64
	Planned      uint64 // cache lookups = distinct sets per window, summed
	Admitted     uint64
	Deferred     uint64
	ForceAdmits  uint64
	Windows      uint64
	PeakLoad     int32 // max per-channel load over all packed windows
	PeakDilation int32
}

// item is one pending request in the arena.
type item struct {
	id        uint64
	src       topology.NodeID
	dests     []topology.NodeID // owned, sorted ascending at Submit
	flat      *routing.FlatPlan
	dilation  int32
	deferrals int
}

// Service batches multicast requests into admission windows. Not safe
// for concurrent use — callers serialize Submit/CloseWindow (the worker
// pool is internal).
type Service struct {
	cfg    Config
	router *routing.FlatRouter
	topo   topology.Topology

	queue []*item // pending, admission order: carried deferrals first
	free  []*item

	// Per-channel load accounting: one word per channel id the plans
	// carry, grown one class layer (layer ids) at a time. Every word is 0
	// between windows: a deferred plan takes its load back out, and
	// CloseWindow zeroes the admitted plans' ids.
	layer   int
	loadVal []int32

	keyBuf   []byte
	admitted []Admission
	uniq     []int // scratch: queue indices of distinct unplanned sets
	misses   []int // scratch: uniq positions that missed the cache
	stats    Stats
}

// New returns a service over cfg. The topology is taken from the
// router's state.
func New(cfg Config) *Service {
	s := new(Service)
	s.Reset(cfg)
	return s
}

// Reset returns s to the state New(cfg) builds, but keeps its arrays:
// requests still queued go back to the item arena with their destination
// arrays, the load words (all 0 between windows) and the scratch buffers
// stay, and the stats restart from zero. A service that packs stream
// after stream therefore grows them once.
func (s *Service) Reset(cfg Config) {
	if cfg.Router == nil {
		panic("sched: Config.Router is required")
	}
	if cfg.MaxDefer == 0 {
		cfg.MaxDefer = 8
	}
	s.drop()
	topo := cfg.Router.State().Topology()
	s.cfg, s.router, s.topo = cfg, cfg.Router, topo
	s.layer = dfr.NewChannelNumbering(topo).Layer()
	s.stats = Stats{}
}

// drop recycles the queued requests and forgets the router, the config
// and every plan pointer, so that a service kept for reuse holds nothing
// of its last stream but capacity.
func (s *Service) drop() {
	for _, it := range s.queue {
		s.recycle(it)
	}
	clear(s.queue)
	clear(s.admitted[:cap(s.admitted)])
	s.queue, s.admitted = s.queue[:0], s.admitted[:0]
	s.cfg, s.router, s.topo = Config{}, nil, nil
}

// Stats returns the cumulative counters.
func (s *Service) Stats() Stats { return s.stats }

// Pending returns the number of requests awaiting admission.
func (s *Service) Pending() int { return len(s.queue) }

// Submit enqueues one multicast request under a caller-chosen id. The
// destination list is copied and canonicalized (sorted) into a recycled
// arena slot, so the caller may reuse dests and steady-state submission
// allocates nothing. Validation matches core.NewMulticastSet.
func (s *Service) Submit(id uint64, src topology.NodeID, dests []topology.NodeID) error {
	if src < 0 || int(src) >= s.topo.Nodes() {
		return fmt.Errorf("sched: source %d out of range", src)
	}
	if len(dests) == 0 {
		return fmt.Errorf("sched: request needs at least one destination")
	}
	var it *item
	if n := len(s.free); n > 0 {
		it = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		it = &item{}
	}
	it.id = id
	it.src = src
	it.flat = nil
	it.dilation = 0
	it.deferrals = 0
	it.dests = append(it.dests[:0], dests...)
	// Insertion sort: destination sets are small and sort.Slice allocates.
	for i := 1; i < len(it.dests); i++ {
		for j := i; j > 0 && it.dests[j] < it.dests[j-1]; j-- {
			it.dests[j], it.dests[j-1] = it.dests[j-1], it.dests[j]
		}
	}
	for i, d := range it.dests {
		if d < 0 || int(d) >= s.topo.Nodes() {
			s.recycle(it)
			return fmt.Errorf("sched: destination %d out of range", d)
		}
		if d == src {
			s.recycle(it)
			return fmt.Errorf("sched: source %d listed as destination", d)
		}
		if i > 0 && d == it.dests[i-1] {
			s.recycle(it)
			return fmt.Errorf("sched: duplicate destination %d", d)
		}
	}
	s.queue = append(s.queue, it)
	s.stats.Submitted++
	return nil
}

func (s *Service) recycle(it *item) {
	it.flat = nil
	s.free = append(s.free, it)
}

// set returns the item's canonical multicast set without copying.
func (it *item) set() core.MulticastSet {
	return core.MulticastSet{Source: it.src, Dests: it.dests}
}

// less orders items by canonical set key: source, then destination
// lists lexicographically. Equal keys denote identical requests.
func less(a, b *item) bool {
	if a.src != b.src {
		return a.src < b.src
	}
	for i := 0; i < len(a.dests) && i < len(b.dests); i++ {
		if a.dests[i] != b.dests[i] {
			return a.dests[i] < b.dests[i]
		}
	}
	return len(a.dests) < len(b.dests)
}

func sameSet(a, b *item) bool {
	if a.src != b.src || len(a.dests) != len(b.dests) {
		return false
	}
	for i := range a.dests {
		if a.dests[i] != b.dests[i] {
			return false
		}
	}
	return true
}

// CloseWindow plans every pending request and packs the window: admitted
// requests are returned in arrival order (carried deferrals first) and
// removed from the queue; requests that would push the window past the
// congestion+dilation budget stay queued for the next window. The
// returned slice is reused by the next call.
func (s *Service) CloseWindow() []Admission {
	s.plan()
	s.admitted = s.admitted[:0]
	var windowLoad, windowDil int32
	kept := 0
	for _, it := range s.queue {
		admit := s.cfg.Budget <= 0 || len(s.admitted) == 0
		var candLoad int32
		if !admit {
			candLoad = s.addLoad(it.flat, 1)
			load := candLoad
			if windowLoad > load {
				load = windowLoad
			}
			dil := it.dilation
			if windowDil > dil {
				dil = windowDil
			}
			if load+dil <= s.cfg.Budget {
				admit = true
			} else if it.deferrals >= s.cfg.MaxDefer {
				admit = true
				s.stats.ForceAdmits++
			} else {
				s.addLoad(it.flat, -1)
			}
		} else if s.cfg.Budget > 0 {
			candLoad = s.addLoad(it.flat, 1)
		}
		if admit {
			if candLoad > windowLoad {
				windowLoad = candLoad
			}
			if it.dilation > windowDil {
				windowDil = it.dilation
			}
			s.admitted = append(s.admitted, Admission{ID: it.id, Flat: it.flat})
			s.stats.Admitted++
			s.recycle(it)
		} else {
			it.deferrals++
			s.stats.Deferred++
			s.queue[kept] = it
			kept++
		}
	}
	for i := kept; i < len(s.queue); i++ {
		s.queue[i] = nil
	}
	s.queue = s.queue[:kept]
	s.stats.Windows++
	if windowLoad > s.stats.PeakLoad {
		s.stats.PeakLoad = windowLoad
	}
	if windowDil > s.stats.PeakDilation {
		s.stats.PeakDilation = windowDil
	}
	if s.cfg.Budget > 0 { // deferred plans took their load back out
		for _, a := range s.admitted {
			for _, id := range a.Flat.Chan {
				s.loadVal[id] = 0
			}
		}
	}
	return s.admitted
}

// plan resolves every unplanned queue item to its FlatPlan, deduplicating
// identical destination sets so each distinct set costs one cache lookup
// per window, and fanning only cache-miss compute out to the worker
// pool. Lookup and install order is canonical regardless of Workers, so
// cache counters and FIFO eviction are deterministic.
func (s *Service) plan() {
	// Collect distinct unplanned sets: sort indices by canonical key
	// (insertion sort on a reused scratch — sort.Slice allocates).
	s.uniq = s.uniq[:0]
	for qi, it := range s.queue {
		if it.flat == nil {
			s.uniq = append(s.uniq, qi)
		}
	}
	if len(s.uniq) == 0 {
		return
	}
	for i := 1; i < len(s.uniq); i++ {
		for j := i; j > 0 && less(s.queue[s.uniq[j]], s.queue[s.uniq[j-1]]); j-- {
			s.uniq[j], s.uniq[j-1] = s.uniq[j-1], s.uniq[j]
		}
	}
	// Probe the cache once per distinct set, in canonical order.
	s.misses = s.misses[:0]
	for i := 0; i < len(s.uniq); i++ {
		it := s.queue[s.uniq[i]]
		if i > 0 && sameSet(it, s.queue[s.uniq[i-1]]) {
			continue
		}
		s.stats.Planned++
		var f *routing.FlatPlan
		var ok bool
		f, s.keyBuf, ok = s.router.FlatProbeBuf(it.set(), s.keyBuf)
		if ok {
			it.flat = f
			it.dilation = dilationOf(f)
		} else {
			s.misses = append(s.misses, i)
		}
	}
	// Compute misses — pure planning, no cache access — on the pool.
	if len(s.misses) > 0 {
		workers := s.cfg.Workers
		if workers > len(s.misses) {
			workers = len(s.misses)
		}
		if workers <= 1 {
			for _, ui := range s.misses {
				it := s.queue[s.uniq[ui]]
				it.flat = s.router.FlatCompute(it.set())
				it.dilation = dilationOf(it.flat)
			}
		} else {
			var wg sync.WaitGroup
			next := make(chan int)
			wg.Add(workers)
			for w := 0; w < workers; w++ {
				go func() {
					defer wg.Done()
					for ui := range next {
						it := s.queue[s.uniq[ui]]
						it.flat = s.router.FlatCompute(it.set())
						it.dilation = dilationOf(it.flat)
					}
				}()
			}
			for _, ui := range s.misses {
				next <- ui
			}
			close(next)
			wg.Wait()
		}
		// Install in canonical order, keeping FIFO eviction deterministic.
		for _, ui := range s.misses {
			it := s.queue[s.uniq[ui]]
			s.keyBuf = s.router.FlatInstallBuf(it.set(), it.flat, s.keyBuf)
		}
	}
	// Duplicates share the representative's plan.
	for i := 1; i < len(s.uniq); i++ {
		it := s.queue[s.uniq[i]]
		if prev := s.queue[s.uniq[i-1]]; it.flat == nil && sameSet(it, prev) {
			it.flat = prev.flat
			it.dilation = prev.dilation
		}
	}
}

// dilationOf returns the plan's dilation: the most levels any of its
// routes crosses (a path's hop count, a tree's depth).
func dilationOf(f *routing.FlatPlan) int32 {
	var d int32
	for r := 0; r < f.Routes(); r++ {
		d = max(d, f.RouteOff[r+1]-f.RouteOff[r])
	}
	return d
}

// addLoad adds delta to the load of every channel the plan traverses —
// +1 to try a request, -1 to take a deferred one back out — and returns
// the maximum resulting per-channel load.
func (s *Service) addLoad(f *routing.FlatPlan, delta int32) int32 {
	var max int32
	for _, id := range f.Chan {
		if v := s.bump(id, delta); v > max {
			max = v
		}
	}
	return max
}

// bump adds delta to channel id's load in the window being packed and
// returns the new value.
func (s *Service) bump(id, delta int32) int32 {
	if int(id) >= len(s.loadVal) {
		s.grow(id)
	}
	s.loadVal[id] += delta
	return s.loadVal[id]
}

// grow extends the load words by whole class layers until they cover
// channel id.
func (s *Service) grow(id int32) {
	n := (int(id)/s.layer + 1) * s.layer
	s.loadVal = append(s.loadVal, make([]int32, n-len(s.loadVal))...)
}
