package wormsim

import (
	"slices"
	"testing"
	"unsafe"

	"multicastnet/internal/stats"
	"multicastnet/internal/topology"
)

// waiters returns channel id's FIFO, front first.
func (n *Network) waiters(id int32) []wormRef {
	var q []wormRef
	for x := n.chanSt[id].head; x != 0; x = n.qPool[x].next {
		q = append(q, n.qPool[x].w)
	}
	return q
}

// TestChannelRecordSizes pins the per-channel and per-destination
// records at 12 bytes each.
func TestChannelRecordSizes(t *testing.T) {
	if got := unsafe.Sizeof(chanState{}); got != 12 {
		t.Errorf("chanState is %d bytes, want 12", got)
	}
	if got := unsafe.Sizeof(delivery{}); got != 12 {
		t.Errorf("delivery is %d bytes, want 12", got)
	}
}

// TestFIFOMatchesSliceModel drives the pooled FIFOs with random
// enqueues, head takes, dequeues from the head, the middle and the tail,
// and dequeues of worms that are not queued, against one slice per
// channel. After every operation each FIFO must hold the model's worms
// in order with its tail on the last, every pool node but the reserved
// one must be queued or free, and the pool must never outgrow the peak
// count of queued worms, so freed nodes are reused. A dequeue from a free
// channel wakes the new head, as a release does.
func TestFIFOMatchesSliceModel(t *testing.T) {
	const channels, worms = 6, 12
	n := NewNetwork(topology.NewMesh2D(2, 1))
	n.chanSt = make([]chanState, channels)
	for id := range n.chanSt {
		n.chanSt[id].owner = noWorm
	}
	n.slots = make([]worm, worms)
	model := make([][]wormRef, channels)
	rng := stats.NewRand(11)
	var peak, reused int
	var dequeued [3]int // at the head, in the middle, at the tail
	for op := 0; op < 20000; op++ {
		for i := range n.slots {
			n.slots[i].parked, n.slots[i].wakePending = true, false
		}
		n.wokenNext = n.wokenNext[:0]
		id := int32(rng.Intn(channels))
		q := model[id]
		var woken wormRef = noWorm
		switch k := rng.Intn(8); {
		case k < 4: // enqueue a worm not on this FIFO yet
			wi := wormRef(rng.Intn(worms))
			if slices.Contains(q, wi) {
				continue
			}
			if n.qFree != 0 {
				reused++
			}
			n.chanEnqueue(id, wi)
			model[id] = append(q, wi)
		case k < 6 && len(q) > 0: // the head takes the channel and releases it
			n.chanTake(id, q[0])
			if got := n.chanSt[id].owner; got != q[0] {
				t.Fatalf("op %d: channel %d owner %d after take by %d", op, id, got, q[0])
			}
			model[id] = q[1:]
			n.release(id, q[0])
			if len(model[id]) > 0 {
				woken = model[id][0]
			}
		case len(q) > 0: // dequeue from any position, from an owned channel half the time
			i, at := rng.Intn(len(q)), 1
			switch i {
			case 0:
				at = 0
			case len(q) - 1:
				at = 2
			}
			dequeued[at]++
			owned := rng.Intn(2) == 0
			if owned {
				n.chanSt[id].owner = wormRef(worms) // no worm of the model
			}
			n.dequeue(id, q[i])
			model[id] = slices.Delete(slices.Clone(q), i, i+1)
			if !owned && len(model[id]) > 0 {
				woken = model[id][0]
			}
			n.chanSt[id].owner = noWorm
		default: // dequeue a worm that is not queued: nothing changes
			n.dequeue(id, wormRef(rng.Intn(worms)))
		}
		var wokeWant []wormRef
		if woken != noWorm {
			wokeWant = []wormRef{woken}
		}
		if !slices.Equal(n.wokenNext, wokeWant) {
			t.Fatalf("op %d on channel %d: woke %v, want %v", op, id, n.wokenNext, wokeWant)
		}
		queued := 0
		for c, want := range model {
			if got := n.waiters(int32(c)); !slices.Equal(got, want) {
				t.Fatalf("op %d: channel %d FIFO %v, model %v", op, c, got, want)
			}
			if got, want := n.chanFront(int32(c)), append(slices.Clone(want), noWorm)[0]; got != want {
				t.Fatalf("op %d: channel %d front %d, want %d", op, c, got, want)
			}
			if tail := n.chanSt[c].tail; len(want) > 0 && n.qPool[tail].w != want[len(want)-1] || len(want) == 0 && tail != 0 {
				t.Fatalf("op %d: channel %d tail node %d holds %d, model %v", op, c, tail, n.qPool[tail].w, want)
			}
			queued += len(want)
		}
		peak = max(peak, queued)
		free := 0
		for x := n.qFree; x != 0; x = n.qPool[x].next {
			free++
		}
		if queued+free != len(n.qPool)-1 || len(n.qPool)-1 != peak {
			t.Fatalf("op %d: %d queued and %d free nodes in a pool of %d; peak queued %d",
				op, queued, free, len(n.qPool)-1, peak)
		}
	}
	if reused == 0 || slices.Contains(dequeued[:], 0) {
		t.Fatalf("coverage is vacuous: %d reused nodes, dequeued %v (head, middle, tail)", reused, dequeued)
	}
}
