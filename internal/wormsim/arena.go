package wormsim

// Worm arena: worms live by value in Network.slots and retired slots —
// with their chans/bounds/deliveries backing arrays — are recycled
// through a freelist instead of being dropped to the garbage collector,
// mirroring the heuristics.Workspace approach of the static kernels.
// Injection reads positions and depths the plan's flattener resolved
// (routing.Flattener), so together with the freelist the steady-state
// inject/step loop allocates nothing once slice capacities have warmed
// up.
//
// Recycling safety: a retired worm's slot may still be referenced by the
// wake lists for one cycle (a release can wake a worm in the same cycle
// it retires, and wokenNext is consumed at the next cycle's merge), and
// by n.worms until the lazy compaction drops it. Slots therefore enter
// the freelist only at compaction, and leave it only when at least two
// cycles have passed since they retired — past every possible stale
// reference.

// allocWorm returns the index of a zeroed worm slot, reusing a retired
// one (and its slice capacities) when the freelist has one old enough,
// and growing the arena otherwise. Growing may move the slots backing
// array: callers never hold a *worm across an allocWorm call.
func (n *Network) allocWorm() wormRef {
	if n.freeHead < len(n.free) {
		wi := n.free[n.freeHead]
		w := &n.slots[wi]
		if w.doneCycle+2 <= n.cycle {
			n.freeHead++
			if n.freeHead > 64 && n.freeHead*2 > len(n.free) {
				n.free = append(n.free[:0], n.free[n.freeHead:]...)
				n.freeHead = 0
			}
			chans, bounds, deliveries := w.chans[:0], w.bounds[:0], w.deliveries[:0]
			*w = worm{chans: chans, bounds: bounds, deliveries: deliveries, mcast: -1}
			return wi
		}
	}
	n.slots = append(n.slots, worm{mcast: -1})
	return wormRef(len(n.slots) - 1)
}

// allocMcast returns the index of a zeroed multicast record, reusing one
// whose worms have all been recycled.
func (n *Network) allocMcast() int32 {
	if len(n.mcFree) > 0 {
		mci := n.mcFree[len(n.mcFree)-1]
		n.mcFree = n.mcFree[:len(n.mcFree)-1]
		n.mcSlots[mci] = mcastState{}
		return mci
	}
	n.mcSlots = append(n.mcSlots, mcastState{})
	return int32(len(n.mcSlots) - 1)
}

// recycleWorm moves a compacted-out worm's slot to the freelist and
// releases its multicast record once the last referencing worm is gone.
func (n *Network) recycleWorm(wi wormRef) {
	w := &n.slots[wi]
	if mci := w.mcast; mci >= 0 {
		w.mcast = -1
		mc := &n.mcSlots[mci]
		mc.worms--
		if mc.worms == 0 {
			n.mcFree = append(n.mcFree, mci)
		}
	}
	n.free = append(n.free, wi)
}

// grow extends s with zero values to n entries if it is shorter: how the
// audits' scratch keeps up with the arena and the channel table.
func grow[T any](s []T, n int) []T {
	if len(s) < n {
		s = append(s, make([]T, n-len(s))...)
	}
	return s
}

// resize returns s at length n, its entries to be overwritten: s
// itself when its capacity allows, else one fresh array of exactly n.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// sortRefsByID sorts a wake list in place by ascending worm id. Wake
// lists are short and nearly sorted (releases fire in scan order), so an
// insertion sort beats sort.Slice — and unlike sort.Slice it does not
// allocate, keeping the steady-state step loop allocation-free.
func (n *Network) sortRefsByID(ws []wormRef) {
	s := n.slots
	for i := 1; i < len(ws); i++ {
		w := ws[i]
		id := s[w].id
		j := i - 1
		for j >= 0 && s[ws[j]].id > id {
			ws[j+1] = ws[j]
			j--
		}
		ws[j+1] = w
	}
}
