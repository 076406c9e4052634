package wormsim

import (
	"fmt"
	"slices"
)

// ckScratch is CheckInvariants' reusable state: the audit used to build
// maps of channel owners and multicast tallies on every call, which made
// -simcheck runs allocate per cycle and distorted profiles. All
// bookkeeping is now epoch-stamped slice scratch indexed by channel id,
// worm slot, and multicast slot; only an actual violation (which ends the
// run) allocates.
type ckScratch struct {
	ownerStamp []int64   // per channel: owner[] valid when == epoch
	owner      []wormRef // per channel: accounted holder this epoch
	worms      []ckWorm  // per worm slot
	mcStamp    []int64   // per multicast slot: tallied this epoch
	mcUndeliv  []int32   // per multicast slot: undelivered owed by live worms
	mcList     []int32   // multicasts tallied this epoch, first-seen order
	epoch      int64
}

// ckWorm is CheckInvariants' per-slot scratch.
type ckWorm struct {
	stamp  int64 // queue-duplicate mark: the channel epoch it was last seen queued in
	queued int32 // queue entries its state claims that the FIFO walk has not found yet
}

// CheckInvariants audits the full simulator state and returns the first
// violation found, or nil. It is the safety net behind the -simcheck
// flag and the determinism tests: any bookkeeping drift between worms,
// channels, queues, and multicast accounting is caught at the cycle it
// happens instead of surfacing as silently wrong statistics.
//
// Invariants checked:
//
//   - accounting: the live-worm count matches inFlight;
//   - flit conservation: every worm's released/head/progress counters
//     are mutually consistent and within route bounds, so no flit is
//     created or destroyed by the pipeline arithmetic;
//   - channel ownership: every held channel is held by exactly the worm
//     whose state says it holds it (no double-occupancy, no orphans),
//     and failed channels are never owned; a worm that has not queued on
//     its frontier level yet owns none of that level's channels;
//   - queue consistency: wait queues contain only live worms, at most
//     once each; each FIFO's tail is its last node, and every pool node
//     but the reserved node 0 is queued or free;
//   - queue membership: a worm is queued on exactly the channels its
//     header waits for — every FIFO entry is a worm whose state says it
//     is queued on that channel (a frontier channel it does not own,
//     once queuedAt == headIdx), and every such worm is in that FIFO.
//     The one-edge-per-position wait-for graph of DetectDeadlock rests
//     on it;
//   - active list: every live worm whose header need is not queued yet
//     is on the active list, where DetectDeadlock's search starts;
//   - delivery conservation: per-worm undelivered counts match the
//     delivery flags, and each multicast's remaining+lost+delivered
//     partitions its destination set;
//   - due level: each worm's due level, the level whose crossing makes
//     advance scan its deliveries, is the least level among its pending
//     deliveries (noneDue when none is pending);
//   - frontier span: each worm's recorded level count is the one its
//     level bounds hold, and its frontier span is its head level's
//     channels (empty once the header has crossed every level).
func (n *Network) CheckInvariants() error {
	ck := &n.ck
	ck.epoch++
	base := ck.epoch
	ck.ownerStamp, ck.owner = grow(ck.ownerStamp, len(n.chanSt)), grow(ck.owner, len(n.chanSt))
	ck.worms = grow(ck.worms, len(n.slots))
	ck.mcStamp, ck.mcUndeliv = grow(ck.mcStamp, len(n.mcSlots)), grow(ck.mcUndeliv, len(n.mcSlots))
	ck.mcList = ck.mcList[:0]
	live := 0
	for _, wi := range n.worms {
		w := &n.slots[wi]
		if w.done {
			continue
		}
		live++
		ck.worms[wi].queued = 0
		holds := func(id int32) error {
			if ck.ownerStamp[id] == base {
				return fmt.Errorf("wormsim: channel %d held by worms %d and %d", id, n.slots[ck.owner[id]].id, w.id)
			}
			ck.ownerStamp[id] = base
			ck.owner[id] = wi
			if n.chanSt[id].owner == deadChan {
				return fmt.Errorf("wormsim: worm %d holds failed channel %d", w.id, id)
			}
			if n.chanSt[id].owner != wi {
				return fmt.Errorf("wormsim: worm %d believes it holds channel %d owned by someone else", w.id, id)
			}
			return nil
		}
		depth := len(w.chans)
		if len(w.bounds) > 0 {
			depth = len(w.bounds) - 1
		}
		if w.depth != depth {
			return fmt.Errorf("wormsim: worm %d records %d levels but its level bounds hold %d", w.id, w.depth, depth)
		}
		if w.released < 0 || w.released > w.headIdx || w.headIdx > depth {
			return fmt.Errorf("wormsim: worm %d counters out of order: released %d head %d levels %d",
				w.id, w.released, w.headIdx, depth)
		}
		if lo, hi := w.levelStart(w.headIdx), w.levelStart(min(w.headIdx+1, depth)); w.frontLo != lo || w.frontHi != hi {
			return fmt.Errorf("wormsim: worm %d frontier span [%d,%d) but its level %d is chans[%d:%d]",
				w.id, w.frontLo, w.frontHi, w.headIdx, lo, hi)
		}
		if w.progress < w.headIdx || w.progress > depth+w.length {
			return fmt.Errorf("wormsim: worm %d flit miscount: progress %d head %d levels %d length %d",
				w.id, w.progress, w.headIdx, depth, w.length)
		}
		for l := w.released; l < w.headIdx; l++ {
			for _, id := range w.level(l) {
				if err := holds(id); err != nil {
					return err
				}
			}
		}
		if w.headIdx < depth {
			queued := w.queuedAt == w.headIdx
			for _, id := range w.level(w.headIdx) {
				switch owns := n.chanSt[id].owner == wi; {
				case owns && !queued:
					return fmt.Errorf("wormsim: worm %d holds channel %d of frontier level %d it has not queued on",
						w.id, id, w.headIdx)
				case owns:
					if err := holds(id); err != nil {
						return err
					}
				case queued:
					ck.worms[wi].queued++
				}
			}
		}
		undeliv, due := 0, noneDue
		for _, d := range w.deliveries {
			if !d.done {
				undeliv++
				due = min(due, int(d.idx))
			}
		}
		if undeliv != w.undeliv {
			return fmt.Errorf("wormsim: worm %d undelivered count %d but %d deliveries pending",
				w.id, w.undeliv, undeliv)
		}
		if due != w.due {
			return fmt.Errorf("wormsim: worm %d due level %d but its least pending delivery level is %d",
				w.id, w.due, due)
		}
		if ck.mcStamp[w.mcast] != base {
			ck.mcStamp[w.mcast] = base
			ck.mcUndeliv[w.mcast] = 0
			ck.mcList = append(ck.mcList, w.mcast)
		}
		ck.mcUndeliv[w.mcast] += int32(undeliv)
	}
	if live != n.inFlight {
		return fmt.Errorf("wormsim: %d live worms but inFlight = %d", live, n.inFlight)
	}
	nodes := 0
	for id := range n.chanSt {
		c := &n.chanSt[id]
		if o := c.owner; o >= 0 {
			if n.slots[o].done {
				return fmt.Errorf("wormsim: channel %d owned by retired worm %d", id, n.slots[o].id)
			}
			if ck.ownerStamp[id] != base || ck.owner[id] != o {
				return fmt.Errorf("wormsim: channel %d owner worm %d does not account for holding it",
					id, n.slots[o].id)
			}
		}
		// Queue-duplicate marks get a fresh epoch per channel (a worm may
		// legitimately wait on many channels at once).
		ck.epoch++
		last := int32(0)
		for x := c.head; x != 0; last, x = x, n.qPool[x].next {
			q := n.qPool[x].w
			nodes++
			if n.slots[q].done {
				return fmt.Errorf("wormsim: retired worm %d still queued on channel %d", n.slots[q].id, id)
			}
			if ck.worms[q].stamp == ck.epoch {
				return fmt.Errorf("wormsim: worm %d queued twice on channel %d", n.slots[q].id, id)
			}
			ck.worms[q].stamp = ck.epoch
			if !n.queuedOn(q, int32(id)) {
				return fmt.Errorf("wormsim: worm %d queued on channel %d its header does not wait on",
					n.slots[q].id, id)
			}
			ck.worms[q].queued--
		}
		if last != c.tail {
			return fmt.Errorf("wormsim: channel %d FIFO tail is node %d, its last node %d", id, c.tail, last)
		}
	}
	// Every FIFO entry matched a distinct (worm, channel) pair of its
	// worm's queued state, so a count left over is a pair missing from
	// its FIFO.
	ck.epoch++
	for _, wi := range n.active {
		ck.worms[wi].stamp = ck.epoch
	}
	for _, wi := range n.worms {
		w := &n.slots[wi]
		if !w.done && ck.worms[wi].queued != 0 {
			return fmt.Errorf("wormsim: worm %d is queued by its state but missing from %d wait queue(s)",
				w.id, ck.worms[wi].queued)
		}
		if !w.done && ck.worms[wi].stamp != ck.epoch && w.headIdx < w.depth && w.queuedAt != w.headIdx {
			return fmt.Errorf("wormsim: worm %d needs a channel it is not queued on but is not active", w.id)
		}
	}
	// Node conservation: every pool node but the reserved one is queued
	// or free. The free walk stops past the pool size, so a cycle in the
	// free list fails here instead of hanging.
	free := 0
	for x := n.qFree; x != 0 && free < len(n.qPool); x = n.qPool[x].next {
		free++
	}
	if nodes+free != len(n.qPool)-1 {
		return fmt.Errorf("wormsim: %d queued and %d free FIFO nodes in a pool of %d", nodes, free, len(n.qPool)-1)
	}
	for _, mci := range ck.mcList {
		mc := &n.mcSlots[mci]
		if mc.remaining != int(ck.mcUndeliv[mci]) {
			return fmt.Errorf("wormsim: multicast remaining %d but live worms owe %d deliveries",
				mc.remaining, ck.mcUndeliv[mci])
		}
		if mc.remaining < 0 || mc.lost < 0 || mc.remaining+mc.lost > mc.size {
			return fmt.Errorf("wormsim: multicast accounting broken: size %d remaining %d lost %d",
				mc.size, mc.remaining, mc.lost)
		}
	}
	return nil
}

// queuedOn reports whether worm wi's state says it is queued on channel
// id: a frontier channel it does not own, once it has queued on its
// frontier level.
func (n *Network) queuedOn(wi wormRef, id int32) bool {
	w := &n.slots[wi]
	return w.queuedAt == w.headIdx && w.headIdx < w.depth && n.chanSt[id].owner != wi &&
		slices.Contains(w.level(w.headIdx), id)
}
