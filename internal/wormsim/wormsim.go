// Package wormsim is a flit-clock wormhole network simulator — the
// from-scratch replacement for the CSIM-based simulation program of
// Section 7.2. One simulation cycle equals one flit time on a channel.
// Worms (in-flight messages) acquire channels one hop per cycle; a
// blocked worm stalls in place holding everything it has acquired, which
// is exactly the wormhole behaviour that creates deadlock (Section 6.1).
//
// Path worms model the path-based multicast schemes: a single header
// acquires the route channel by channel and the body follows in a
// pipeline.
//
// Tree worms model tree-like multicast routing as Section 6.1 describes
// it: the header flit is replicated at branch nodes and all branches
// proceed forward in lock-step, so the whole frontier (one tree level)
// must be secured before any branch advances. The worm claims whatever
// frontier channels are free — holding them — while it waits for the
// busy ones ("all of the required channels must be available before
// transmission on any of them may take place"). Blockage of any branch
// therefore stalls the entire tree while it keeps channels occupied, the
// behaviour that makes naive tree multicast slow under contention and
// deadlock-prone (Figs. 6.1 and 6.4).
//
// Both kinds are built by one injector, InjectFlatTag, from one plan
// form: the dense routing.FlatPlan. Callers holding routed paths and
// trees flatten them first (routing.Flattener; Run does so with one
// reused flattener per run).
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
//     flat parallel arrays.
//   - Worms live in a slot arena (Network.slots) and are referenced by
//     dense int32 indices (wormRef) everywhere — the in-flight list, the
//     active list, wake queues, channel owner and FIFO state. The
//     scheduling hot loop therefore moves int32s, not
//     pointers: no GC write barriers on queue/list writes, 2-8x denser
//     queues, and nothing extra for the collector to trace.
//   - Per-channel state is struct-of-arrays: chanOwner / chanQHead /
//     chanQueue are parallel flat slices indexed by channel id. The
//     dead-channel flag is folded into the owner word (deadChan
//     sentinel), so the uncontended availability check is one int32 load.
//   - Blocked worms are parked: they leave the active list and are woken
//     only when a channel they wait on is released to them (FIFO heads
//     only), instead of being re-polled every cycle. Wakeups are merged
//     into the active scan in ascending worm-id order, which keeps the
//     cycle-level semantics bit-identical to the original every-worm scan
//     (worms were always processed in injection order).
//   - The cold audits reuse epoch-stamped scratch (DetectDeadlock,
//     CheckInvariants, FailWhere), so periodic checks neither allocate
//     nor distort profiles.
//
// Stepping is serial: one engine advances every worm of a run in
// ascending id order. Parallelism lives one layer up, where independent
// runs (sweep points) execute concurrently.
//
// Observer callbacks (OnDelivery, OnComplete, OnLost, ...) are
// notifications: they must not inject traffic or step the network.
package wormsim

import (
	"fmt"

	"multicastnet/internal/dfr"
	"multicastnet/internal/routing"
	"multicastnet/internal/topology"
)

// wormKind distinguishes path worms from lock-step tree worms.
type wormKind uint8

const (
	pathWorm wormKind = iota
	treeWorm
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

// delivery marks a destination and where its router sits: the channel
// index along the path (path worms) or the depth of the arrival channel
// (tree worms).
type delivery struct {
	dest topology.NodeID
	idx  int // path: 1-based position; tree: depth of the arrival channel
	done bool
}

// treeLevel is one frontier of a tree worm: all channels at one depth.
// The lock-step header advances a full level at a time, claiming free
// channels immediately and waiting (while holding them) for the rest.
type treeLevel struct {
	channels []int32 // compact channel indices
	taken    []bool
	missing  int
	queued   bool
}

// worm is one in-flight wormhole message, stored by value in the slot
// arena. The id is stable across the worm's lifetime and identifies it in
// deadlock reports; the slot index (wormRef) is the reference every other
// structure uses.
type worm struct {
	kind wormKind
	id   int

	// Path worms.
	chans    []int32 // compact channel indices along the route
	headIdx  int     // next channel index to acquire
	queuedAt int     // headIdx value already enqueued for (-1: none)
	progress int     // total head advances, including drain into the final destination
	released int     // leading channels already released

	// Tree worms.
	levels []treeLevel

	deliveries []delivery
	undeliv    int
	length     int   // message length in flits
	spawned    int64 // cycle at which the multicast was initiated

	// Scheduling state (see Step): a parked worm is blocked and off the
	// active list; waking is idempotent per cycle via wakePending.
	parked      bool
	wakePending bool
	done        bool  // retired; awaiting compaction out of n.worms
	doneCycle   int64 // cycle of retirement, gating freelist reuse (arena.go)

	mcast int32 // multicast record index (Network.mcSlots), -1 when unset
}

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
	// Compact indices are dealt in first-use order, so the per-channel
	// arrays below hold only the channels the traffic uses, never
	// N·D·classes entries.
	chans dfr.ChannelNumbering
	slot  []int32

	// Channel state, struct-of-arrays: parallel flat slices indexed by
	// the compact channel index. chanOwner is the only array the
	// uncontended advance touches; the FIFO arrays join in only under
	// contention. Queues are head-indexed: dequeuing advances the cursor
	// instead of reslicing, so the backing arrays keep their capacity and
	// steady-state wait episodes allocate nothing.
	chanOwner []wormRef   // owning worm, noWorm, or deadChan
	chanQHead []int32     // FIFO cursor into chanQueue[id]
	chanQueue [][]wormRef // per-channel FIFO backing, front at chanQHead

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
	onDelivery       func(dest topology.NodeID, latencyCycles int64)
	onDeliveryDetail func(dest topology.NodeID, latencyCycles int64, mcastSize int)
	onComplete       func(latencyCycles int64)
	onCompleteTag    func(tag uint64, latencyCycles int64)
	onLost           func(dest topology.NodeID, mcastSize int)
}

// NewNetwork returns an empty network over topo. Channel state is
// created on a channel's first use, so any channel class the injected
// plans number is accepted.
func NewNetwork(topo topology.Topology) *Network {
	return &Network{topo: topo, chans: dfr.NewChannelNumbering(topo)}
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
	return ok && n.chanOwner[ci] >= 0
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
// with the per-destination latency in cycles.
func (n *Network) OnDelivery(fn func(dest topology.NodeID, latencyCycles int64)) {
	n.onDelivery = fn
}

// OnDeliveryDetail registers a delivery callback that also receives the
// destination count of the delivering multicast, so unicast (size 1) and
// multicast traffic can be measured separately (the Section 8.2
// interaction study).
func (n *Network) OnDeliveryDetail(fn func(dest topology.NodeID, latencyCycles int64, mcastSize int)) {
	n.onDeliveryDetail = fn
}

// OnComplete registers a callback invoked when the last destination of a
// multicast is delivered, with the multicast's completion latency.
func (n *Network) OnComplete(fn func(latencyCycles int64)) { n.onComplete = fn }

// OnCompleteTag registers a completion callback that also receives the
// caller-chosen tag of InjectFlatTag, letting a service correlate each
// completion with the request that produced it.
func (n *Network) OnCompleteTag(fn func(tag uint64, latencyCycles int64)) { n.onCompleteTag = fn }

// chanOf returns the compact index of the channel a plan numbers id, on
// its hop from -> to: one slot-table read once the channel has been seen.
func (n *Network) chanOf(id, from, to int32) int32 {
	if uint(id) < uint(len(n.slot)) && n.slot[id] != 0 {
		return n.slot[id] - 1
	}
	return n.see(id, from, to)
}

// see admits a channel on its first use. It recomputes the hop's id in
// the network's own topology, from the plan's own nodes, and panics
// unless it matches the plan's — which refuses a hop off this topology
// and a plan numbered in another one — so validation costs once per
// distinct channel, not once per injection or step. The channel then
// gets the next compact index, dead from the start if a failure
// predicate covers it.
func (n *Network) see(id, from, to int32) int32 {
	c := dfr.Channel{From: topology.NodeID(from), To: topology.NodeID(to)}
	layer := n.chans.Layer()
	if layer > 0 && int(id) >= layer {
		c.Class = int(id) / layer
	}
	if want, ok := n.chans.ID(c); !ok || want != id {
		panic(fmt.Sprintf("wormsim: plan channel %d is not hop %v of %s", id, c, n.topo.Name()))
	}
	if int(id) >= len(n.slot) {
		n.slot = append(n.slot, make([]int32, (int(id)/layer+1)*layer-len(n.slot))...)
	}
	ci := int32(len(n.chanOwner))
	n.slot[id] = ci + 1
	owner := noWorm
	for _, pred := range n.deadPreds {
		if pred(c) {
			owner = deadChan
			break
		}
	}
	n.chanOwner = append(n.chanOwner, owner)
	n.chanQHead = append(n.chanQHead, 0)
	n.chanQueue = append(n.chanQueue, nil)
	return ci
}

// chanEnqueue appends wi to channel id's FIFO; callers guarantee
// at-most-once per wait episode via the worm-side queued markers, keeping
// stalls O(1) per cycle.
func (n *Network) chanEnqueue(id int32, wi wormRef) {
	n.chanQueue[id] = append(n.chanQueue[id], wi)
}

// chanWaiters is the live FIFO content of channel id, front first.
func (n *Network) chanWaiters(id int32) []wormRef {
	return n.chanQueue[id][n.chanQHead[id]:]
}

// chanFront returns the first waiter of channel id, or noWorm.
func (n *Network) chanFront(id int32) wormRef {
	q := n.chanQueue[id]
	if h := n.chanQHead[id]; int(h) < len(q) {
		return q[h]
	}
	return noWorm
}

// chanFreeFor reports whether wi is first in line for channel id (or the
// queue is empty because wi never had to wait). The caller has already
// established the channel is unowned and alive (chanOwner == noWorm).
func (n *Network) chanFreeFor(id int32, wi wormRef) bool {
	q := n.chanQueue[id]
	h := n.chanQHead[id]
	return int(h) == len(q) || q[h] == wi
}

// chanAvailableToQueued reports whether wi, known to be enqueued on
// channel id, may take it now: alive, free, and wi is first in line.
func (n *Network) chanAvailableToQueued(id int32, wi wormRef) bool {
	if n.chanOwner[id] != noWorm {
		return false
	}
	q := n.chanQueue[id]
	h := n.chanQHead[id]
	return int(h) < len(q) && q[h] == wi
}

// chanTake grants channel id to wi, popping it from the FIFO head if it
// was queued. The queue resets in place whenever it drains, keeping the
// backing array's capacity.
func (n *Network) chanTake(id int32, wi wormRef) {
	q := n.chanQueue[id]
	h := n.chanQHead[id]
	if int(h) < len(q) && q[h] == wi {
		h++
		if int(h) == len(q) {
			n.chanQueue[id] = q[:0]
			h = 0
		}
		n.chanQHead[id] = h
	}
	n.chanOwner[id] = wi
}

// addWorm registers a freshly injected worm: it joins both the in-flight
// list and the active list (ids are strictly increasing, so appends keep
// both sorted).
func (n *Network) addWorm(wi wormRef) {
	n.worms = append(n.worms, wi)
	n.inFlight++
	n.active = append(n.active, wi)
	n.mcSlots[n.slots[wi].mcast].worms++
}

// InjectFlatTag injects one multicast from its dense CSR plan, spawned at
// the current cycle: one path worm per flattened path, then one lock-step
// tree worm per flattened tree, in plan order. Positions, depths and
// channel ids were resolved at flattening time (routing.Flattener), so
// injection walks packed arrays, and each channel is validated once,
// when first seen. lengthFlits is the message length in flits; tag is reported
// back by OnCompleteTag when the multicast's last destination is
// delivered. A plan with no worms injects nothing.
func (n *Network) InjectFlatTag(fp *routing.FlatPlan, lengthFlits int, tag uint64) {
	if lengthFlits < 1 {
		panic("wormsim: message must have at least one flit")
	}
	if fp.Paths() == 0 && fp.Trees() == 0 {
		return // no worm would ever free a multicast record
	}
	mci := n.allocMcast()
	mc := &n.mcSlots[mci]
	mc.spawned = n.cycle
	mc.size = int(fp.TotalDests)
	mc.tag = tag
	for p := 0; p < fp.Paths(); p++ {
		wi := n.allocWorm()
		w := &n.slots[wi]
		w.kind = pathWorm
		w.id = n.nextID
		n.nextID++
		w.length = lengthFlits
		w.spawned = n.cycle
		w.queuedAt = -1
		w.mcast = mci
		lo, hi := fp.PathOff[p], fp.PathOff[p+1]
		clo := lo - int32(p)
		for i := lo + 1; i < hi; i++ {
			w.chans = append(w.chans, n.chanOf(fp.PathChan[clo+i-lo-1], fp.PathNodes[i-1], fp.PathNodes[i]))
		}
		dlo, dhi := fp.PathDestOff[p], fp.PathDestOff[p+1]
		for d := dlo; d < dhi; d++ {
			w.deliveries = append(w.deliveries, delivery{
				dest: topology.NodeID(fp.PathDest[d]),
				idx:  int(fp.PathDestPos[d]),
			})
			w.undeliv++
			mc.remaining++
		}
		n.addWorm(wi)
	}
	for t := 0; t < fp.Trees(); t++ {
		wi := n.allocWorm()
		w := &n.slots[wi]
		w.kind = treeWorm
		w.id = n.nextID
		n.nextID++
		w.length = lengthFlits
		w.spawned = n.cycle
		w.queuedAt = -1
		w.mcast = mci
		llo, lhi := fp.TreeOff[t], fp.TreeOff[t+1]
		w.levels = growLevels(w.levels, int(lhi-llo))
		for l := llo; l < lhi; l++ {
			clo, chi := fp.TreeLevelOff[l], fp.TreeLevelOff[l+1]
			lv := &w.levels[l-llo]
			for c := clo; c < chi; c++ {
				lv.channels = append(lv.channels, n.chanOf(fp.TreeChan[c], fp.TreeFrom[c], fp.TreeTo[c]))
			}
			for len(lv.taken) < len(lv.channels) {
				lv.taken = append(lv.taken, false)
			}
			lv.missing = len(lv.channels)
		}
		dlo, dhi := fp.TreeDestOff[t], fp.TreeDestOff[t+1]
		for d := dlo; d < dhi; d++ {
			w.deliveries = append(w.deliveries, delivery{
				dest: topology.NodeID(fp.TreeDest[d]),
				idx:  int(fp.TreeDestDepth[d]),
			})
			w.undeliv++
			mc.remaining++
		}
		n.addWorm(wi)
	}
}

// release frees channel id held by wi and wakes the FIFO head waiting on
// it, if any. Availability only ever arises at release time (a take sets
// an owner), so waking queue heads here is the complete wake condition.
// Dead channels are never released: their owner word is deadChan, which
// never matches wi.
func (n *Network) release(id int32, wi wormRef) {
	if n.chanOwner[id] != wi {
		return
	}
	n.chanOwner[id] = noWorm
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
		var live bool
		if w.kind == pathWorm {
			live = n.advancePath(wi, w)
		} else {
			live = n.advanceTree(wi, w)
		}
		if !live {
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

// advancePath moves a path worm one cycle; false retires it.
func (n *Network) advancePath(wi wormRef, w *worm) bool {
	moved := false
	if w.headIdx < len(w.chans) {
		id := w.chans[w.headIdx]
		owner := n.chanOwner[id]
		if owner == deadChan {
			// The header reached failed hardware: the message is dropped
			// and its in-flight flits are flushed (Section 2.3.4 flow
			// control has no way to back up past an acquired channel).
			n.killWorm(wi)
			return false
		}
		if owner == noWorm && n.chanFreeFor(id, wi) {
			n.chanTake(id, wi)
			w.headIdx++
			w.progress++
			moved = true
		} else {
			if w.queuedAt != w.headIdx {
				n.chanEnqueue(id, wi)
				w.queuedAt = w.headIdx
			}
			w.parked = true
		}
	} else {
		// Fully routed; the body drains at one flit per cycle.
		w.progress++
		moved = true
	}
	if moved {
		n.progress = true
		// Deliveries: the last flit crosses the arrival channel at
		// progress idx + length - 1.
		for i := range w.deliveries {
			d := &w.deliveries[i]
			if !d.done && w.progress >= d.idx+w.length-1 {
				n.deliver(w, d)
			}
		}
		// Releases: the tail crosses channel index i at progress i + length.
		for w.released < len(w.chans) && w.progress >= w.released+w.length {
			n.release(w.chans[w.released], wi)
			w.released++
		}
	}
	return w.released < len(w.chans) || w.undeliv > 0
}

// advanceTree moves a tree worm one cycle; false retires it. The header
// frontier is the level at index w.headIdx: the worm claims whatever
// frontier channels are free (holding them) and crosses the level — one
// level per cycle, lock-step — only when the whole frontier is secured.
// w.progress counts crossed levels plus drain cycles, exactly like a path
// worm's channel count, so delivery and release timing share the path
// formulas with depth in place of path position.
func (n *Network) advanceTree(wi wormRef, w *worm) bool {
	moved := false
	if w.headIdx < len(w.levels) {
		l := &w.levels[w.headIdx]
		for _, id := range l.channels {
			if n.chanOwner[id] == deadChan {
				// Lock-step trees need the whole frontier; one dead
				// branch channel drops the whole message.
				n.killWorm(wi)
				return false
			}
		}
		if !l.queued {
			for _, id := range l.channels {
				n.chanEnqueue(id, wi)
			}
			l.queued = true
		}
		for i, id := range l.channels {
			if l.taken[i] {
				continue
			}
			if n.chanAvailableToQueued(id, wi) {
				n.chanTake(id, wi)
				l.taken[i] = true
				l.missing--
			}
		}
		if l.missing == 0 {
			w.headIdx++
			w.progress++
			moved = true
		} else {
			w.parked = true
		}
	} else {
		// Fully acquired; the replicated body drains one flit per cycle.
		w.progress++
		moved = true
	}
	if moved {
		n.progress = true
		for i := range w.deliveries {
			d := &w.deliveries[i]
			if !d.done && w.progress >= d.idx+w.length-1 {
				n.deliver(w, d)
			}
		}
		for w.released < len(w.levels) && w.progress >= w.released+w.length {
			for _, id := range w.levels[w.released].channels {
				n.release(id, wi)
			}
			w.released++
		}
	}
	return w.released < len(w.levels) || w.undeliv > 0
}

// deliver records one destination delivery.
func (n *Network) deliver(w *worm, d *delivery) {
	d.done = true
	w.undeliv--
	mci := w.mcast
	lat := n.cycle - w.spawned
	if n.onDelivery != nil {
		n.onDelivery(d.dest, lat)
	}
	if n.onDeliveryDetail != nil {
		n.onDeliveryDetail(d.dest, lat, n.mcSlots[mci].size)
	}
	mc := &n.mcSlots[mci]
	mc.remaining--
	// A multicast that lost any destination to a fault never completes;
	// completion latency is only defined for fully delivered multicasts.
	if mc.remaining == 0 && mc.lost == 0 {
		if n.onComplete != nil {
			n.onComplete(n.cycle - mc.spawned)
		}
		if n.onCompleteTag != nil {
			n.onCompleteTag(mc.tag, n.cycle-mc.spawned)
		}
	}
}

// ddScratch is DetectDeadlock's reusable, epoch-stamped state. Its graph
// rests on one property of the wait queues: a worm is queued on exactly
// the channels its header waits for — a path worm on chans[headIdx] when
// queuedAt == headIdx, a tree worm on the untaken channels of a queued
// frontier level (CheckInvariants checks both directions). Walking a
// channel's FIFO therefore visits every queued waiter of that channel,
// and a worm's own state says whether it is among them.
type ddScratch struct {
	live   []wormRef
	pos    []int32 // slot -> index into live, valid when stamp == epoch
	stamp  []int64
	epoch  int64
	chans  []ddChan  // per channel id
	adj    [][]int32 // wait-for edges, indexed by live position
	color  []uint8
	parent []int32
	stack  []ddFrame
}

// ddChan is one channel's FIFO state in a DetectDeadlock check.
type ddChan struct {
	epoch int64 // the FIFO's edges were added in this check
	tail  int32 // live index of the last live waiter, or -1
}

// ddFrame is one explicit DFS frame: the iterative traversal keeps very
// large in-flight worm populations from overflowing the goroutine stack
// (the recursion depth equals the wait-for chain length).
type ddFrame struct {
	u    int32
	next int32 // index into adj[u] of the next edge to explore
}

// DetectDeadlock searches the wait-for graph for a cycle. Worm A waits
// for worm B when B owns a channel A's header needs, or when B is queued
// ahead of A on it. Because a blocked worm holds every channel it has
// acquired until its header advances (wormhole flow control,
// Section 2.3.4), a wait-for cycle is a permanent deadlock.
//
// The graph keeps one edge per FIFO position of each needed channel:
// every live waiter points at its nearest live predecessor, the first at
// the owner, and a worm that needs the channel but is not queued on it
// at the last live waiter (the owner when nobody waits). Each such edge
// is a wait-for relation and each wait-for relation is a path of them,
// so the graph has a cycle exactly when the relation does, at a size
// linear in the queue lengths rather than quadratic.
//
// It returns the ids of the worms on one cycle — each waits for the one
// before it, the first for the last — or nil. Steady-state calls
// allocate nothing (a found cycle, which ends the run, is the only
// allocation).
func (n *Network) DetectDeadlock() []int {
	dd := &n.dd
	dd.epoch++
	if len(dd.stamp) < len(n.slots) {
		dd.stamp = append(dd.stamp, make([]int64, len(n.slots)-len(dd.stamp))...)
		dd.pos = append(dd.pos, make([]int32, len(n.slots)-len(dd.pos))...)
	}
	if len(dd.chans) < len(n.chanOwner) {
		dd.chans = append(dd.chans, make([]ddChan, len(n.chanOwner)-len(dd.chans))...)
	}
	live := dd.live[:0]
	for _, wi := range n.worms {
		if !n.slots[wi].done {
			dd.stamp[wi] = dd.epoch
			dd.pos[wi] = int32(len(live))
			live = append(live, wi)
		}
	}
	dd.live = live
	for len(dd.adj) < len(live) {
		dd.adj = append(dd.adj, nil)
	}
	adj := dd.adj[:len(live)]
	for i := range adj {
		adj[i] = adj[i][:0]
	}
	for i, wi := range live {
		w := &n.slots[wi]
		if w.kind == pathWorm {
			if w.headIdx < len(w.chans) {
				n.ddNeed(adj, int32(i), wi, w.chans[w.headIdx], w.queuedAt == w.headIdx)
			}
			continue
		}
		if w.headIdx >= len(w.levels) {
			continue // draining; never blocks
		}
		l := &w.levels[w.headIdx]
		for ci, id := range l.channels {
			if !l.taken[ci] {
				n.ddNeed(adj, int32(i), wi, id, l.queued)
			}
		}
	}
	const (
		white = 0
		gray  = 1
		black = 2
	)
	if cap(dd.color) < len(live) {
		dd.color = make([]uint8, len(live))
		dd.parent = make([]int32, len(live))
	}
	color := dd.color[:len(live)]
	parent := dd.parent[:len(live)]
	for i := range color {
		color[i] = white
		parent[i] = -1
	}
	stack := dd.stack[:0]
	defer func() { dd.stack = stack[:0] }()
	for start := range live {
		if color[start] != white {
			continue
		}
		color[start] = gray
		stack = append(stack[:0], ddFrame{u: int32(start)})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if int(f.next) < len(adj[f.u]) {
				v := adj[f.u][f.next]
				f.next++
				switch color[v] {
				case white:
					parent[v] = f.u
					color[v] = gray
					stack = append(stack, ddFrame{u: v})
				case gray:
					cycle := []int{n.slots[live[v]].id}
					for x := f.u; x != v; x = parent[x] {
						cycle = append(cycle, n.slots[live[x]].id)
					}
					return cycle
				}
			} else {
				color[f.u] = black
				stack = stack[:len(stack)-1]
			}
		}
	}
	return nil
}

// ddNeed records that the worm at live position i (slot wi) needs channel
// id. The first need of a channel in a check links its FIFO; a queued
// worm got its edge there, and a worm not yet queued waits for the tail.
func (n *Network) ddNeed(adj [][]int32, i int32, wi wormRef, id int32, queued bool) {
	dd := &n.dd
	c := &dd.chans[id]
	if c.epoch != dd.epoch {
		c.epoch = dd.epoch
		c.tail = n.ddLinkFIFO(adj, id)
	}
	if queued {
		return
	}
	if c.tail >= 0 {
		adj[i] = append(adj[i], c.tail)
	} else if o := n.chanOwner[id]; o >= 0 && o != wi && dd.stamp[o] == dd.epoch {
		adj[i] = append(adj[i], dd.pos[o])
	}
}

// ddLinkFIFO adds one edge per live waiter of channel id — to its nearest
// live predecessor, or to the owner for the first — and returns the live
// index of the last live waiter, or -1.
func (n *Network) ddLinkFIFO(adj [][]int32, id int32) int32 {
	dd := &n.dd
	o := n.chanOwner[id]
	prev := int32(-1)
	for _, q := range n.chanWaiters(id) {
		if dd.stamp[q] != dd.epoch {
			continue
		}
		p := dd.pos[q]
		if prev >= 0 {
			adj[p] = append(adj[p], prev)
		} else if o >= 0 && o != q && dd.stamp[o] == dd.epoch {
			adj[p] = append(adj[p], dd.pos[o])
		}
		prev = p
	}
	return prev
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
