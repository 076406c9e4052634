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
		ci := s - 1
		if s == 0 || n.chanOwner[ci] == deadChan {
			continue
		}
		if c, _ := n.chans.Channel(int32(id)); !pred(c) {
			continue
		}
		// Collect the owner before the dead sentinel overwrites it.
		collect(n.chanOwner[ci])
		n.chanOwner[ci] = deadChan
		for _, q := range n.chanWaiters(ci) {
			collect(q)
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

// killWorm drops an in-flight worm: it leaves every wait queue, releases
// every channel it holds (waking their FIFO heads), reports its
// undelivered destinations through OnLost, and retires. The multicast is
// marked lossy so OnCompleteTag never fires for it.
func (n *Network) killWorm(wi wormRef) {
	w := &n.slots[wi]
	if w.done {
		return
	}
	n.killed++
	if w.kind == pathWorm {
		if w.queuedAt >= 0 && w.queuedAt == w.headIdx && w.headIdx < len(w.chans) {
			n.dequeue(w.chans[w.headIdx], wi)
		}
		for i := w.released; i < w.headIdx; i++ {
			n.release(w.chans[i], wi)
		}
	} else {
		if w.headIdx < len(w.levels) {
			l := &w.levels[w.headIdx]
			for i, id := range l.channels {
				switch {
				case l.taken[i]:
					n.release(id, wi)
				case l.queued:
					n.dequeue(id, wi)
				}
			}
		}
		for li := w.released; li < w.headIdx && li < len(w.levels); li++ {
			for _, id := range w.levels[li].channels {
				n.release(id, wi)
			}
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
			n.onLost(d.dest, mc.size)
		}
	}
	w.undeliv = 0
	n.retire(wi)
}

// dequeue removes wi from one channel's wait queue; if the channel is
// free and a new head emerges, that head is woken (it may have been
// waiting behind wi).
func (n *Network) dequeue(id int32, wi wormRef) {
	q := n.chanQueue[id]
	h := int(n.chanQHead[id])
	live := q[h:]
	for i, x := range live {
		if x == wi {
			n.chanQueue[id] = append(q[:h+i], live[i+1:]...)
			if n.dd.clean > 0 && i+1 < len(live) {
				n.dd.mark(n.chanQueue[id][h+i]) // it now waits for the worm ahead of wi
			}
			break
		}
	}
	if int(n.chanQHead[id]) == len(n.chanQueue[id]) {
		n.chanQueue[id] = n.chanQueue[id][:0]
		n.chanQHead[id] = 0
	}
	if n.chanOwner[id] == noWorm {
		if head := n.chanFront(id); head != noWorm {
			n.wake(head)
		}
	}
}
