// Package wormsim is a flit-clock wormhole network simulator — the
// from-scratch replacement for the CSIM-based simulation program of
// Section 7.2. One simulation cycle equals one flit time on a channel.
// Worms (in-flight messages) acquire channels one level per cycle; a
// blocked worm stalls in place holding everything it has acquired, which
// is exactly the wormhole behaviour that creates deadlock (Section 6.1).
//
// Every worm is a list of levels crossed lock-step, the way Section 6.1
// describes tree-like multicast: the header flit is replicated at branch
// nodes and all branches proceed forward together, so a whole level (one
// tree frontier) must be secured before any branch advances. The worm
// claims whatever frontier channels are free — holding them — while it
// waits for the busy ones ("all of the required channels must be
// available before transmission on any of them may take place").
// Blockage of any branch therefore stalls the entire tree while it keeps
// channels occupied, the behaviour that makes naive tree multicast slow
// under contention and deadlock-prone (Figs. 6.1 and 6.4). A path worm,
// the form of the path-based multicast schemes, is the tree whose every
// level holds one channel: its header acquires the route channel by
// channel and the body follows in a pipeline.
//
// One injector, InjectFlatTag, builds every worm from one plan form: the
// dense routing.FlatPlan, whose every route is a list of levels of
// channel ids, one worm per route. Callers holding routed paths and
// trees flatten them first (routing.Flattener; Run does so with one
// reused flattener per run), in the topology the network runs on: the
// injector refuses a plan flattened in any other.
//
// Channel arbitration is first-come first-served: a worm that finds a
// channel busy enqueues on it and acquires it, in order, once free.
// Deadlock is detected via wait-for-graph cycles and reported rather than
// hidden.
//
// # Performance architecture
//
// The simulator is indexed, event-driven and data-oriented (see
// DESIGN.md, "Simulator data layout"):
//
//   - Plans carry every hop's channel id, numbered by arithmetic on the
//     topology (dfr.ChannelNumbering) when the plan was flattened.
//     Injection maps an id to the channel's compact index through one
//     direct-mapped slot table, so neither injection nor the per-cycle
//     inner loop hashes or scans for a channel; the inner loop indexes
//     one record per channel. A channel's first sighting decodes its id
//     through the same numbering, as FailWhere does.
//   - Worms live in a slot arena (Network.slots) and are referenced by
//     dense int32 indices (wormRef) everywhere — the in-flight list, the
//     active list, wake queues, channel owner and FIFO state. The
//     scheduling hot loop therefore moves int32s, not
//     pointers: no GC write barriers on queue/list writes, 2-8x denser
//     queues, and nothing extra for the collector to trace.
//   - A channel's state is one 12-byte record (chanState): its owner
//     word and the two ends of its FIFO, a list threaded through one
//     network-owned node pool with a free list. The dead-channel flag is
//     folded into the owner word (deadChan sentinel), so the uncontended
//     availability check reads one record.
//   - Blocked worms are parked: they leave the active list and are woken
//     only when a channel they wait on is released to them (FIFO heads
//     only), instead of being re-polled every cycle. Wakeups are merged
//     into the active scan in ascending worm-id order, which keeps the
//     cycle-level semantics bit-identical to the original every-worm scan
//     (worms were always processed in injection order).
//   - The cold audits reuse epoch-stamped scratch (DetectDeadlock,
//     CheckInvariants, FailWhere), so periodic checks neither allocate
//     nor distort profiles. DetectDeadlock starts only from the worms
//     that enqueued since its last nil verdict and from the active list:
//     a new cycle uses one of their changed edges, so every call is
//     exact.
//   - A network is reset, not rebuilt: Reset returns it to the state
//     NewNetwork builds and keeps the capacity of every array, so a
//     caller that serves stream after stream (sched.Serve) grows the
//     channel records, slot table, FIFO pool and worm arena once. Run
//     still builds a fresh network per run: a pooled one would keep a
//     saturated run's arena alive (DESIGN.md, "Simulator data layout").
//
// Stepping is serial: one engine advances every worm of a run in
// ascending id order. Parallelism lives one layer up, where independent
// runs (sweep points) execute concurrently.
//
// Observer callbacks (OnDelivery, OnCompleteTag, OnLost) are
// notifications: they must not inject traffic or step the network.
package wormsim

import (
	"fmt"
	"math"
	"slices"

	"multicastnet/internal/dfr"
	"multicastnet/internal/routing"
	"multicastnet/internal/topology"
)

// wormRef is a dense index into the worm arena (Network.slots). Slots are
// recycled (arena.go), so a wormRef identifies a worm only while that
// worm is live or within the two-cycle retirement grace period; the
// stable diagnostic identity is worm.id.
type wormRef = int32

const (
	// noWorm is the empty reference: no owner, no waiter.
	noWorm wormRef = -1
	// deadChan is the channel-owner sentinel for failed hardware. Folding
	// the dead flag into the owner word keeps the hot-path availability
	// check a single int32 compare — a dead channel is never noWorm, so
	// it can never be granted.
	deadChan wormRef = -2
)

// delivery marks a destination node and where its router sits: the
// 1-based level of the channel that arrives there (a path worm's path
// position, a tree worm's depth).
type delivery struct {
	dest int32
	idx  int32
	done bool
}

// chanState is one channel's arbitration state: its owner and the ends
// of its FIFO of waiting worms, a list of nodes in Network.qPool from
// head to tail (0: empty). The zero record's FIFO is empty.
type chanState struct {
	owner      wormRef // owning worm, noWorm, or deadChan
	head, tail int32
}

// qNode is one FIFO entry: a waiting worm and the pool index of the
// entry behind it (0: none). Free nodes chain through next.
type qNode struct {
	w    wormRef
	next int32
}

// worm is one in-flight wormhole message, stored by value in the slot
// arena. The id is stable across the worm's lifetime and identifies it in
// deadlock reports; the slot index (wormRef) is the reference every other
// structure uses.
//
// The worm crosses its levels lock-step, one per cycle. chans holds the
// compact channel indices level by level. A worm with a level of several
// channels stores its level bounds: level l is chans[bounds[l]:bounds[l+1]].
// One whose levels each hold one channel, a path, stores none: its level
// l is channel l alone. The level count and the frontier's span of chans
// are kept beside them, set at injection and moved once per crossed
// level, so a header's step does not test which layout the worm has. A
// frontier channel is taken exactly when the channel's owner is the worm.
type worm struct {
	id int

	chans    []int32 // compact channel indices, level by level
	bounds   []int32 // level bounds; empty when each level holds one channel
	depth    int     // levels to cross
	headIdx  int     // frontier: the next level to cross
	queuedAt int     // the level the worm is queued on (-1: none)
	progress int     // levels crossed plus drain cycles
	released int     // leading levels already released

	// chans[frontLo:frontHi] is level headIdx; empty once headIdx == depth.
	frontLo, frontHi int32

	deliveries []delivery
	undeliv    int
	due        int   // least level among pending deliveries; noneDue when none
	length     int   // message length in flits
	spawned    int64 // cycle at which the multicast was initiated

	// Scheduling state (see Step): a parked worm is blocked and off the
	// active list; waking is idempotent per cycle via wakePending.
	parked      bool
	wakePending bool
	done        bool  // retired; awaiting compaction out of n.worms
	mcast       int32 // multicast record index (Network.mcSlots), -1 when unset
	doneCycle   int64 // cycle of retirement, gating freelist reuse (arena.go)
}

// noneDue is a worm's due level once no delivery is pending.
const noneDue = math.MaxInt

// levelStart returns where level l starts in chans; level depth starts
// at the end.
func (w *worm) levelStart(l int) int32 {
	if len(w.bounds) == 0 {
		return int32(l)
	}
	return w.bounds[l]
}

// level returns the channels of level l.
func (w *worm) level(l int) []int32 {
	if len(w.bounds) == 0 {
		return w.chans[l : l+1]
	}
	return w.chans[w.bounds[l]:w.bounds[l+1]]
}

// front returns the channels of the frontier level.
func (w *worm) front() []int32 { return w.chans[w.frontLo:w.frontHi] }

// mcastState tracks one multicast (possibly several worms) for
// whole-multicast latency. Records live in Network.mcSlots and are
// referenced by index.
type mcastState struct {
	spawned   int64
	size      int    // destination count of the whole multicast
	remaining int    // undelivered destinations across all worms
	lost      int    // destinations lost to fault-killed worms
	worms     int    // worms still referencing this record (arena recycling)
	tag       uint64 // caller-chosen id reported by OnCompleteTag
}

// Network is the simulated wormhole network.
type Network struct {
	topo topology.Topology

	// Channels: a plan names each hop by its id in the topology's
	// arithmetic numbering; slot maps an id to 1 + the channel's compact
	// index (0: not seen yet) and grows one class layer of ids at a time.
	// Compact indices are dealt in first-use order, so the channel
	// records below cover only the channels the traffic uses, never
	// N·D·classes entries.
	chans dfr.ChannelNumbering
	slot  []int32

	// Channel state, one record per compact channel index. Every FIFO is
	// threaded through qPool, whose node 0 is the nil link and holds
	// noWorm, so a channel's front waiter is one read even when nobody
	// waits. Freed nodes chain from qFree and are reused first: the pool
	// holds the peak count of queued (worm, channel) pairs, and
	// steady-state wait episodes allocate nothing.
	chanSt []chanState
	qPool  []qNode
	qFree  int32

	// Worm arena: every worm lives in slots and is referenced by index.
	// Pointers into slots are taken locally only and never held across an
	// allocWorm call (appends may move the backing array).
	slots []worm

	worms    []wormRef // in-flight worms, ascending id, lazily compacted
	inFlight int       // live entries in worms
	nextID   int
	cycle    int64
	progress bool // did any worm advance this cycle

	// Event scheduling: active holds the worms that may move this cycle
	// (ascending id). Releases wake parked FIFO heads; a wake lands in
	// wokenNow when the target's id is still ahead of the scan position
	// (it moves this cycle, as it would under the full scan) or in
	// wokenNext otherwise (it moves next cycle).
	active    []wormRef
	nextBuf   []wormRef
	wokenNow  wormHeap
	wokenNext []wormRef
	scanID    int  // id of the worm being processed by Step
	inStep    bool // routes wakes between wokenNow and wokenNext

	// Fault state: predicates applied to every channel — seen already
	// and seen later — by FailWhere; killed counts fault-killed worms.
	deadPreds []func(dfr.Channel) bool
	killed    int

	// FailWhere victim dedup: epoch stamps over worm slots replace the
	// per-activation map (faults.go).
	victimStamp []int64
	victimEpoch int64
	victimBuf   []wormRef

	// Worm arena freelist (arena.go): retired slots and multicast records
	// are recycled.
	free     []wormRef
	freeHead int
	mcSlots  []mcastState
	mcFree   []int32

	// Reusable audit scratch (allocation-free steady state).
	dd ddScratch // DetectDeadlock
	ck ckScratch // CheckInvariants (check.go)

	// Observers.
	onDelivery    func(dest topology.NodeID, latencyCycles int64, mcastSize int)
	onCompleteTag func(tag uint64, latencyCycles int64)
	onLost        func(dest topology.NodeID, mcastSize int)
}

// NewNetwork returns an empty network over topo. Channel state is
// created on a channel's first use, so any channel class the injected
// plans number is accepted.
func NewNetwork(topo topology.Topology) *Network {
	n := new(Network)
	n.Reset(topo)
	return n
}

// Reset returns n to the state NewNetwork(topo) builds, but keeps the
// capacity of every array: the slot table, which it clears, the channel
// records, the FIFO pool, and the worm arena with each slot's level and
// delivery arrays. A network that serves stream after stream therefore
// grows them once. Compact channel indices restart in first-use order
// and worm ids at 0, so a reset network replays a stream exactly as a
// fresh one does. The
// observers, the failure predicates and the kill count are dropped. The
// audits' epoch-stamped scratch keeps its stamps and keeps counting, so
// no stamp from before the reset can match a later epoch. Reset(nil)
// leaves a network over no topology that holds nothing of its past runs
// but capacity; it must be reset to a topology before it is used.
func (n *Network) Reset(topo topology.Topology) {
	var chans dfr.ChannelNumbering
	if topo != nil {
		chans = dfr.NewChannelNumbering(topo)
	}
	clear(n.slot) // compact indices restart in first-use order
	clear(n.deadPreds)
	*n = Network{
		topo:        topo,
		chans:       chans,
		slot:        n.slot,
		chanSt:      n.chanSt[:0],
		qPool:       append(n.qPool[:0], qNode{w: noWorm}),
		slots:       n.slots[:0],
		worms:       n.worms[:0],
		active:      n.active[:0],
		nextBuf:     n.nextBuf[:0],
		wokenNow:    n.wokenNow[:0],
		wokenNext:   n.wokenNext[:0],
		deadPreds:   n.deadPreds[:0],
		victimStamp: n.victimStamp,
		victimEpoch: n.victimEpoch,
		victimBuf:   n.victimBuf[:0],
		free:        n.free[:0],
		mcSlots:     n.mcSlots[:0],
		mcFree:      n.mcFree[:0],
		dd: ddScratch{
			call:    n.dd.call,
			changed: n.dd.changed[:0],
			slots:   n.dd.slots,
			fifo:    n.dd.fifo,
			links:   n.dd.links[:0],
			stack:   n.dd.stack[:0],
		},
		ck: n.ck,
	}
}

// Cycle returns the current simulation cycle.
func (n *Network) Cycle() int64 { return n.cycle }

// ActiveWorms returns the number of in-flight worms.
func (n *Network) ActiveWorms() int { return n.inFlight }

// movable reports whether any worm can advance without external input:
// the active list, this cycle's residual wakes, and next cycle's wakes
// are all empty. With no movable worms and no pending injections the
// network state is frozen, which Run exploits to fast-forward idle
// cycles.
func (n *Network) movable() bool {
	return len(n.active) > 0 || len(n.wokenNow) > 0 || len(n.wokenNext) > 0
}

// Idle reports whether the network is frozen: no worm can advance until
// new traffic is injected. Note an idle network may still hold parked
// worms (ActiveWorms > 0 while Idle is a wait-for deadlock).
func (n *Network) Idle() bool { return !n.movable() }

// FastForward jumps the clock to target, the externally driven analogue
// of Run's idle fast-forward. It is a no-op unless the network is idle
// and target is ahead of the current cycle — a frozen network's state is
// invariant under clock advances, so results are identical to stepping
// cycle by cycle.
func (n *Network) FastForward(target int64) {
	if target > n.cycle && !n.movable() {
		n.cycle = target
	}
}

// Busy implements dfr.ChannelOracle: it reports whether a channel is
// currently held by a worm, letting adaptive schemes route around live
// congestion at injection time. A channel never used — including one
// outside the topology — is free.
func (n *Network) Busy(c dfr.Channel) bool {
	ci, ok := n.lookup(c)
	return ok && n.chanSt[ci].owner >= 0
}

// lookup returns the compact index of channel c, or false when no
// injected plan has used c.
func (n *Network) lookup(c dfr.Channel) (int32, bool) {
	id, ok := n.chans.ID(c)
	if !ok || int(id) >= len(n.slot) || n.slot[id] == 0 {
		return -1, false
	}
	return n.slot[id] - 1, true
}

// OnDelivery registers a callback invoked for every destination delivery
// with the per-destination latency in cycles and the destination count
// of the delivering multicast, so unicast (size 1) and multicast traffic
// can be measured separately (the Section 8.2 interaction study).
func (n *Network) OnDelivery(fn func(dest topology.NodeID, latencyCycles int64, mcastSize int)) {
	n.onDelivery = fn
}

// OnCompleteTag registers a callback invoked when the last destination
// of a multicast is delivered, with the multicast's tag (the caller's
// InjectFlatTag argument, so a service can match each completion to its
// request) and its completion latency.
func (n *Network) OnCompleteTag(fn func(tag uint64, latencyCycles int64)) { n.onCompleteTag = fn }

// chanOf returns the compact index of the channel a plan numbers id:
// one slot-table read once the channel has been seen.
func (n *Network) chanOf(id int32) int32 {
	if uint(id) < uint(len(n.slot)) && n.slot[id] != 0 {
		return n.slot[id] - 1
	}
	return n.see(id)
}

// see admits a channel on its first use. It decodes the id in the
// network's numbering, which InjectFlatTag has checked is the plan's, and
// panics when no channel has it; the channel then gets the next compact
// index, dead from the start if a failure predicate covers it.
func (n *Network) see(id int32) int32 {
	c, ok := n.chans.Channel(id)
	if !ok {
		panic(fmt.Sprintf("wormsim: plan channel %d is not a channel of %s", id, n.topo.Name()))
	}
	if int(id) >= len(n.slot) {
		layer := n.chans.Layer()
		n.slot = append(n.slot, make([]int32, (int(id)/layer+1)*layer-len(n.slot))...)
	}
	ci := int32(len(n.chanSt))
	n.slot[id] = ci + 1
	owner := noWorm
	for _, pred := range n.deadPreds {
		if pred(c) {
			owner = deadChan
			break
		}
	}
	if len(n.chanSt) == cap(n.chanSt) {
		// Double: append's own steps shrink toward 1.25x, and a fresh
		// network sees thousands of channels.
		n.chanSt = slices.Grow(n.chanSt, len(n.chanSt))
	}
	n.chanSt = append(n.chanSt, chanState{owner: owner})
	return ci
}

// chanEnqueue links wi at the tail of channel id's FIFO, in a free pool
// node when there is one; callers guarantee at-most-once per wait
// episode via the worm's queuedAt level, keeping stalls O(1) per cycle.
func (n *Network) chanEnqueue(id int32, wi wormRef) {
	x := n.qFree
	if x != 0 {
		n.qFree = n.qPool[x].next
		n.qPool[x] = qNode{w: wi}
	} else {
		x = int32(len(n.qPool))
		n.qPool = append(n.qPool, qNode{w: wi})
	}
	c := &n.chanSt[id]
	if c.tail == 0 {
		c.head = x
	} else {
		n.qPool[c.tail].next = x
	}
	c.tail = x
	if n.dd.clean > 0 {
		n.dd.mark(wi)
	}
}

// chanFront returns the first waiter of channel id, or noWorm.
func (n *Network) chanFront(id int32) wormRef {
	return n.qPool[n.chanSt[id].head].w
}

// chanTake grants channel id to wi, popping it from the FIFO head if it
// was queued there.
func (n *Network) chanTake(id int32, wi wormRef) {
	c := &n.chanSt[id]
	if h := c.head; h != 0 && n.qPool[h].w == wi {
		n.unlink(c, 0, h)
	}
	c.owner = wi
}

// unlink removes node x, which follows node prev (0: x is the head), from
// channel c's FIFO and frees it.
func (n *Network) unlink(c *chanState, prev, x int32) {
	next := n.qPool[x].next
	if prev == 0 {
		c.head = next
	} else {
		n.qPool[prev].next = next
	}
	if c.tail == x {
		c.tail = prev
	}
	n.qPool[x].next, n.qFree = n.qFree, x
}

// newWorm takes a worm slot for multicast mci, spawned now and carrying
// lengthFlits flits, and returns it for the caller to fill with levels.
// The pointer is valid until the next allocWorm call.
func (n *Network) newWorm(mci int32, lengthFlits int) (wormRef, *worm) {
	wi := n.allocWorm()
	w := &n.slots[wi]
	w.id = n.nextID
	n.nextID++
	w.length = lengthFlits
	w.spawned = n.cycle
	w.queuedAt = -1
	w.mcast = mci
	return wi, w
}

// addWorm gives a filled worm its deliveries — destination rows dest,
// arriving at the 1-based levels at — and its due level, and registers
// it: it joins both the in-flight list and the active list (ids are
// strictly increasing, so appends keep both sorted).
func (n *Network) addWorm(wi wormRef, dest, at []int32) {
	w := &n.slots[wi]
	w.deliveries = resize(w.deliveries, len(dest))
	w.due = noneDue
	for d, v := range dest {
		w.deliveries[d] = delivery{dest: v, idx: at[d]}
		w.due = min(w.due, int(at[d]))
	}
	w.undeliv = len(dest)
	mc := &n.mcSlots[w.mcast]
	mc.remaining += len(dest)
	mc.worms++
	n.worms = append(n.worms, wi)
	n.inFlight++
	n.active = append(n.active, wi)
}

// InjectFlatTag injects one multicast from its dense CSR plan, spawned at
// the current cycle: one worm per flattened route, in plan order, whose
// levels are the route's levels. Delivery levels and channel ids were
// resolved at flattening time (routing.Flattener), so injection walks
// packed arrays. A route whose levels each hold one channel (a path)
// gets no level bounds. lengthFlits is the message length in flits; tag
// is reported back by OnCompleteTag when the multicast's last
// destination is delivered. A plan with no routes injects nothing; a
// plan flattened in a topology other than the network's panics, naming
// both.
func (n *Network) InjectFlatTag(fp *routing.FlatPlan, lengthFlits int, tag uint64) {
	if lengthFlits < 1 {
		panic("wormsim: message must have at least one flit")
	}
	if fp.Routes() <= 0 {
		return // no worm would ever free a multicast record
	}
	if t := fp.Numbering().Topology(); t != n.topo {
		name := "no topology"
		if t != nil {
			name = t.Name()
		}
		panic(fmt.Sprintf("wormsim: plan numbered in %s injected into a network over %s", name, n.topo.Name()))
	}
	mci := n.allocMcast()
	mc := &n.mcSlots[mci]
	mc.spawned = n.cycle
	mc.size = int(fp.TotalDests)
	mc.tag = tag
	for r := 0; r < fp.Routes(); r++ {
		wi, w := n.newWorm(mci, lengthFlits)
		llo, lhi := fp.RouteOff[r], fp.RouteOff[r+1]
		clo, chi := fp.LevelOff[llo], fp.LevelOff[lhi]
		w.chans = resize(w.chans, int(chi-clo))
		for i, id := range fp.Chan[clo:chi] {
			w.chans[i] = n.chanOf(id)
		}
		if chi-clo > lhi-llo { // some level holds several channels
			w.bounds = resize(w.bounds, int(lhi-llo+1))
			for i, b := range fp.LevelOff[llo : lhi+1] {
				w.bounds[i] = b - clo
			}
		}
		w.depth = int(lhi - llo)
		w.frontHi = w.levelStart(min(1, w.depth))
		dlo, dhi := fp.DestOff[r], fp.DestOff[r+1]
		n.addWorm(wi, fp.Dest[dlo:dhi], fp.DestLevel[dlo:dhi])
	}
}

// release frees channel id held by wi and wakes the FIFO head waiting on
// it, if any. Availability only ever arises at release time (a take sets
// an owner), so waking queue heads here is the complete wake condition.
// Dead channels are never released: their owner word is deadChan, which
// never matches wi.
func (n *Network) release(id int32, wi wormRef) {
	c := &n.chanSt[id]
	if c.owner != wi {
		return
	}
	c.owner = noWorm
	if f := n.chanFront(id); f != noWorm {
		n.wake(f)
	}
}

// wake schedules a parked worm to be processed again. If its id is still
// ahead of the current scan position it runs this very cycle — exactly
// when the full scan would have polled it — otherwise next cycle.
func (n *Network) wake(wi wormRef) {
	w := &n.slots[wi]
	if w.done || !w.parked || w.wakePending {
		return
	}
	w.wakePending = true
	if n.inStep && w.id > n.scanID {
		n.wokenPush(wi)
	} else {
		n.wokenNext = append(n.wokenNext, wi)
	}
}

// Step advances the simulation by one cycle. It returns true if any worm
// made progress.
//
// Only movable worms are visited: the active list (worms that advanced
// last cycle) merged, in ascending id order, with worms woken by channel
// releases. Parked worms cost nothing until a release reaches them.
func (n *Network) Step() bool {
	n.cycle++
	n.progress = false
	n.mergeWokenNext()

	n.inStep = true
	next := n.nextBuf[:0]
	i := 0
	for {
		var wi wormRef
		if len(n.wokenNow) > 0 && (i >= len(n.active) || n.slots[n.wokenNow[0]].id < n.slots[n.active[i]].id) {
			wi = n.wokenPop()
			w := &n.slots[wi]
			w.wakePending = false
			w.parked = false
		} else if i < len(n.active) {
			wi = n.active[i]
			i++
		} else {
			break
		}
		w := &n.slots[wi]
		if w.done {
			continue // killed by a fault while on the active list
		}
		n.scanID = w.id
		if !n.advance(wi, w) {
			n.retire(wi)
		} else if !w.parked {
			next = append(next, wi)
		}
	}
	n.inStep = false
	n.nextBuf = n.active[:0]
	n.active = next
	return n.progress
}

// mergeWokenNext folds last cycle's deferred wakes into the active list,
// preserving ascending id order.
func (n *Network) mergeWokenNext() {
	if len(n.wokenNext) == 0 {
		return
	}
	n.sortRefsByID(n.wokenNext)
	merged := n.nextBuf[:0]
	i, j := 0, 0
	for i < len(n.active) && j < len(n.wokenNext) {
		if n.slots[n.active[i]].id < n.slots[n.wokenNext[j]].id {
			merged = append(merged, n.active[i])
			i++
		} else {
			wi := n.wokenNext[j]
			w := &n.slots[wi]
			w.wakePending = false
			w.parked = false
			merged = append(merged, wi)
			j++
		}
	}
	merged = append(merged, n.active[i:]...)
	for ; j < len(n.wokenNext); j++ {
		wi := n.wokenNext[j]
		w := &n.slots[wi]
		w.wakePending = false
		w.parked = false
		merged = append(merged, wi)
	}
	n.nextBuf = n.active[:0]
	n.active = merged
	n.wokenNext = n.wokenNext[:0]
}

// retire removes a drained worm from the in-flight accounting; the worms
// list is compacted lazily once half of it is dead. Idempotent: a worm
// killed by a fault mid-advance is already retired when Step sees it.
func (n *Network) retire(wi wormRef) {
	w := &n.slots[wi]
	if w.done {
		return
	}
	w.done = true
	w.doneCycle = n.cycle
	n.inFlight--
	if dead := len(n.worms) - n.inFlight; dead > 32 && dead > n.inFlight {
		live := n.worms[:0]
		for _, v := range n.worms {
			if !n.slots[v].done {
				live = append(live, v)
			} else {
				n.recycleWorm(v)
			}
		}
		n.worms = live
	}
}

// advance moves a worm one cycle; false retires it. The header crosses
// its frontier level only when the worm owns every channel of it. In one
// pass over the frontier it takes each channel that is free and whose
// FIFO is empty or headed by the worm, dies on a dead one, and, on its
// first visit to the level only, enqueues on the rest; it holds what it
// took while it waits. w.progress counts crossed levels plus drain
// cycles: the last flit crosses 1-based level l at progress
// l + length - 1, and the tail leaves 0-based level i at progress
// i + length.
func (n *Network) advance(wi wormRef, w *worm) bool {
	if w.headIdx < w.depth {
		first := w.queuedAt != w.headIdx
		w.queuedAt = w.headIdx
		crossed := true
		for _, id := range w.front() {
			switch c := &n.chanSt[id]; {
			case c.owner == noWorm && (c.head == 0 || n.qPool[c.head].w == wi):
				n.chanTake(id, wi)
			case c.owner == wi:
			case c.owner == deadChan:
				// The header reached failed hardware: the message is dropped
				// and its in-flight flits are flushed (Section 2.3.4 flow
				// control has no way to back up past an acquired channel).
				n.killWorm(wi)
				return false
			default:
				crossed = false
				if first {
					n.chanEnqueue(id, wi)
				}
			}
		}
		if !crossed {
			w.parked = true
			return true
		}
		w.headIdx++
		w.frontLo = w.frontHi
		if w.headIdx < w.depth {
			w.frontHi = w.levelStart(w.headIdx + 1)
		}
	}
	// The header crossed a level, or, fully routed, the body drains one
	// flit per cycle. The last flit has crossed level progress-length+1;
	// the deliveries are scanned only once that reaches the due level.
	w.progress++
	n.progress = true
	if w.progress-w.length+1 >= w.due {
		n.deliverDue(w)
	}
	for w.released < w.depth && w.progress >= w.released+w.length {
		for _, id := range w.level(w.released) {
			n.release(id, wi)
		}
		w.released++
	}
	return w.released < w.depth || w.undeliv > 0
}

// deliverDue delivers, in array order, every pending delivery whose
// level the worm's last flit has crossed, and moves the due level to the
// least level still pending.
func (n *Network) deliverDue(w *worm) {
	crossed := w.progress - w.length + 1
	w.due = noneDue
	for i := range w.deliveries {
		d := &w.deliveries[i]
		switch {
		case d.done:
		case int(d.idx) <= crossed:
			n.deliver(w, d)
		default:
			w.due = min(w.due, int(d.idx))
		}
	}
}

// deliver records one destination delivery.
func (n *Network) deliver(w *worm, d *delivery) {
	d.done = true
	w.undeliv--
	mc := &n.mcSlots[w.mcast]
	if n.onDelivery != nil {
		n.onDelivery(topology.NodeID(d.dest), n.cycle-w.spawned, mc.size)
	}
	mc.remaining--
	// A multicast that lost any destination to a fault never completes;
	// completion latency is only defined for fully delivered multicasts.
	if mc.remaining == 0 && mc.lost == 0 && n.onCompleteTag != nil {
		n.onCompleteTag(mc.tag, n.cycle-mc.spawned)
	}
}

// ddScratch is DetectDeadlock's state: the marks, which persist between
// calls, and per-call scratch stamped with the call count.
type ddScratch struct {
	call    int64
	clean   int64     // the last call that returned nil; from the first, worms are marked
	changed []wormRef // worms marked since the last nil verdict
	slots   []ddSlot  // per worm slot
	fifo    []int64   // per channel: the call that walked its FIFO
	links   []ddLink  // this call's wait-for edges, chained per worm
	stack   []ddLink  // the search path, each worm with its next edge
}

// ddSlot is one worm slot's DetectDeadlock state.
type ddSlot struct {
	stamp  int64 // 3*call: edges listed; +1: on the search path; +2: searched
	marked int64 // the clean call since which the worm is in changed
	first  int32 // the worm's first edge in links this call, or -1
}

// ddLink is a wait-for edge to worm w, or a search-path frame at worm w;
// next is the index in links of the worm's next edge, or -1. The explicit
// path keeps long wait-for chains off the goroutine stack.
type ddLink struct {
	w    wormRef
	next int32
}

// mark records that worm wi's wait-for edges changed.
func (dd *ddScratch) mark(wi wormRef) {
	dd.slots = grow(dd.slots, int(wi)+1)
	if s := &dd.slots[wi]; s.marked != dd.clean {
		s.marked = dd.clean
		dd.changed = append(dd.changed, wi)
	}
}

// DetectDeadlock searches the wait-for graph for a cycle. Worm A waits
// for worm B when B owns a channel A's header needs, or when B is queued
// ahead of A on it. Because a blocked worm holds every channel it has
// acquired until its header advances (wormhole flow control,
// Section 2.3.4), a wait-for cycle is a permanent deadlock.
//
// The search follows one edge per FIFO position of each needed channel:
// every waiter points at the waiter ahead of it, the first at the owner,
// and a worm that needs the channel but is not queued on it at the last
// waiter (the owner when nobody waits). Each such edge is a wait-for
// relation and each wait-for relation is a path of them.
//
// Until a call returns nil, a call starts from every live worm. After,
// it starts only from the worms whose edges can have changed since the
// last nil verdict: those that queued on a channel (chanEnqueue marks
// them) and the active list, which holds every worm that needs a channel
// it is not queued on (CheckInvariants). A cycle the clean graph lacked
// uses one of their edges, so every call is exact. Any other edge is
// one the clean graph had, or a shortcut of a path it had: when a fault
// removes a worm from a FIFO, the waiter behind it now waits for the
// one the removed worm waited for. A cycle through such edges therefore
// implies a cycle in the clean graph, which had none.
//
// It returns the ids of the worms on one cycle — each waits for the one
// before it, the first for the last — or nil. Steady-state calls
// allocate nothing (a found cycle, which ends the run, is the only
// allocation).
func (n *Network) DetectDeadlock() []int {
	dd := &n.dd
	dd.call++
	dd.slots, dd.fifo = grow(dd.slots, len(n.slots)), grow(dd.fifo, len(n.chanSt))
	dd.links = dd.links[:0]
	starts := [2][]wormRef{n.worms}
	if dd.clean > 0 {
		starts = [2][]wormRef{dd.changed, n.active}
	}
	onPath, searched := 3*dd.call+1, 3*dd.call+2
	for _, list := range starts {
		for _, s := range list {
			if n.slots[s].done || dd.slots[s].stamp >= onPath {
				continue
			}
			dd.stack = append(dd.stack[:0], n.ddPush(s))
			for len(dd.stack) > 0 {
				top := &dd.stack[len(dd.stack)-1]
				if top.next < 0 {
					dd.slots[top.w].stamp = searched
					dd.stack = dd.stack[:len(dd.stack)-1]
					continue
				}
				v := dd.links[top.next].w
				top.next = dd.links[top.next].next
				switch dd.slots[v].stamp {
				case onPath:
					cycle := []int{n.slots[v].id}
					for i := len(dd.stack) - 1; dd.stack[i].w != v; i-- {
						cycle = append(cycle, n.slots[dd.stack[i].w].id)
					}
					return cycle
				case searched:
				default:
					dd.stack = append(dd.stack, n.ddPush(v))
				}
			}
		}
	}
	dd.changed, dd.clean = dd.changed[:0], dd.call
	return nil
}

// ddPush lists the wait-for edges of worm u, which the search reaches
// for the first time in this call, and returns its frame.
func (n *Network) ddPush(u wormRef) ddLink {
	w := &n.slots[u]
	if w.headIdx < w.depth {
		queued := w.queuedAt == w.headIdx
		for _, id := range w.front() {
			if n.chanSt[id].owner != u {
				n.ddNeed(u, id, queued)
			}
		}
	}
	s := &n.dd.slots[u]
	if s.stamp < 3*n.dd.call {
		s.first = -1 // no edges
	}
	s.stamp = 3*n.dd.call + 1
	return ddLink{u, s.first}
}

// ddNeed lists the edge of worm u on channel id, which its header needs.
// A worm not queued on it waits for the last waiter, or else the owner.
// A queued worm gets its edge when the FIFO is walked, once per call:
// each waiter waits for the one ahead of it, the first for the owner.
// The walk reaches u because a FIFO holds exactly the live worms whose
// state says they are queued on it (CheckInvariants).
func (n *Network) ddNeed(u wormRef, id int32, queued bool) {
	c := &n.chanSt[id]
	switch {
	case !queued && c.tail != 0:
		n.ddEdge(u, n.qPool[c.tail].w)
	case !queued:
		n.ddEdge(u, c.owner)
	case n.dd.fifo[id] != n.dd.call:
		n.dd.fifo[id] = n.dd.call
		ahead := c.owner
		for x := c.head; x != 0; x = n.qPool[x].next {
			n.ddEdge(n.qPool[x].w, ahead)
			ahead = n.qPool[x].w
		}
	}
}

// ddEdge records that worm u waits for v, unless v is no worm (noWorm,
// deadChan) or u itself.
func (n *Network) ddEdge(u, v wormRef) {
	if v < 0 || v == u {
		return
	}
	s := &n.dd.slots[u]
	if s.stamp < 3*n.dd.call {
		s.stamp, s.first = 3*n.dd.call, -1
	}
	n.dd.links = append(n.dd.links, ddLink{v, s.first})
	s.first = int32(len(n.dd.links) - 1)
}

// wormHeap is a binary min-heap of worm slot indices keyed by worm id,
// used to merge same-cycle wakeups into the ascending-id active scan.
// Push/pop live on Network (wokenPush/wokenPop) because the ordering key
// is slots[ref].id.
type wormHeap []wormRef

func (n *Network) wokenPush(wi wormRef) {
	h := append(n.wokenNow, wi)
	s := n.slots
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if s[h[p]].id <= s[h[i]].id {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	n.wokenNow = h
}

func (n *Network) wokenPop() wormRef {
	h := n.wokenNow
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	n.wokenNow = h
	s := n.slots
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(h) && s[h[l]].id < s[h[min]].id {
			min = l
		}
		if r < len(h) && s[h[r]].id < s[h[min]].id {
			min = r
		}
		if min == i {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	return top
}
