package wormsim

import (
	"multicastnet/internal/dfr"
	"multicastnet/internal/topology"
)

// Mid-run fault injection. A failed channel is hardware that stops
// moving flits: the worm holding it loses its pipeline (wormhole flow
// control cannot back flits out of acquired channels, Section 2.3.4), so
// the whole message is dropped and every channel it held is flushed and
// released. Worms that later request a failed channel are dropped at the
// point of request. Lost destination deliveries are reported through
// OnLost so drivers can account delivery ratios and trigger retries.

// OnLost registers a callback invoked once per destination that a
// fault-killed worm will never deliver, with the destination count of
// the owning multicast.
func (n *Network) OnLost(fn func(dest topology.NodeID, mcastSize int)) { n.onLost = fn }

// KilledWorms returns the number of worms killed by channel failures so
// far.
func (n *Network) KilledWorms() int { return n.killed }

// FailWhere fails every channel matching pred — both channels already
// seen and channels first seen later (routes injected after the fault
// that still reference dead hardware lose their worms on contact). Worms
// currently holding or queued on a failing channel are killed
// immediately, in ascending id order. It returns the number of worms
// killed. Victim dedup uses epoch stamps over the worm slots, so a fault
// activation mid-run allocates nothing once the scratch has warmed up.
func (n *Network) FailWhere(pred func(c dfr.Channel) bool) int {
	n.deadPreds = append(n.deadPreds, pred)
	n.victimEpoch++
	n.victimStamp = grow(n.victimStamp, len(n.slots))
	victims := n.victimBuf[:0]
	collect := func(wi wormRef) {
		if wi >= 0 && !n.slots[wi].done && n.victimStamp[wi] != n.victimEpoch {
			n.victimStamp[wi] = n.victimEpoch
			victims = append(victims, wi)
		}
	}
	for id, s := range n.slot {
		if s == 0 {
			continue
		}
		st := &n.chanSt[s-1]
		if st.owner == deadChan {
			continue
		}
		if c, _ := n.chans.Channel(int32(id)); !pred(c) {
			continue
		}
		// Collect the owner before the dead sentinel overwrites it.
		collect(st.owner)
		st.owner = deadChan
		for x := st.head; x != 0; x = n.qPool[x].next {
			collect(n.qPool[x].w)
		}
	}
	// Kill in ascending worm id order: the collection above follows
	// channel ids, which say nothing about worm ids, and the kill order —
	// and with it the OnLost callback order and all downstream wakes —
	// must not depend on how channels are numbered.
	n.sortRefsByID(victims)
	for _, wi := range victims {
		n.killWorm(wi)
	}
	n.victimBuf = victims[:0]
	return len(victims)
}

// killWorm drops an in-flight worm: it releases the frontier channels it
// owns, leaves the wait queues of the rest and releases its held levels,
// waking the FIFO heads behind it; it reports its undelivered
// destinations through OnLost and retires. The multicast is marked lossy
// so OnCompleteTag never fires for it. A worm killed partway through its
// first visit to a level is queued on only some of the rest, and dequeue
// leaves the others as they are.
func (n *Network) killWorm(wi wormRef) {
	w := &n.slots[wi]
	if w.done {
		return
	}
	n.killed++
	if w.headIdx < w.depth() {
		queued := w.queuedAt == w.headIdx
		for _, id := range w.level(w.headIdx) {
			if n.chanSt[id].owner == wi {
				n.release(id, wi)
			} else if queued {
				n.dequeue(id, wi)
			}
		}
	}
	for l := w.released; l < w.headIdx; l++ {
		for _, id := range w.level(l) {
			n.release(id, wi)
		}
	}
	mci := w.mcast
	for i := range w.deliveries {
		d := &w.deliveries[i]
		if d.done {
			continue
		}
		d.done = true
		mc := &n.mcSlots[mci]
		mc.remaining--
		mc.lost++
		if n.onLost != nil {
			n.onLost(topology.NodeID(d.dest), mc.size)
		}
	}
	w.undeliv, w.due = 0, noneDue
	n.retire(wi)
}

// dequeue unlinks wi from channel id's wait queue, wherever it stands;
// if the channel is free, the new head is woken (it may have been
// waiting behind wi). A worm that is not in the queue leaves it as it is
// and wakes no one.
func (n *Network) dequeue(id int32, wi wormRef) {
	c := &n.chanSt[id]
	for prev, x := int32(0), c.head; x != 0; prev, x = x, n.qPool[x].next {
		if n.qPool[x].w != wi {
			continue
		}
		n.unlink(c, prev, x)
		if c.owner == noWorm {
			if head := n.chanFront(id); head != noWorm {
				n.wake(head)
			}
		}
		return
	}
}
