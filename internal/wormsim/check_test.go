package wormsim

import (
	"strings"
	"testing"

	"multicastnet/internal/dfr"
	"multicastnet/internal/routing"
	"multicastnet/internal/topology"
)

// TestCheckInvariantsQueueMembership corrupts one wait queue, the
// worm-side state it mirrors, a channel owner, the node pool or the
// active list, and expects CheckInvariants to name the break of a
// property DetectDeadlock rests on: a worm is queued on exactly the
// frontier channels it does not own, a FIFO's tail is its last waiter,
// every pool node is queued or free, a worm that has not queued on its
// frontier level owns none of it, and a worm whose header need is not
// queued yet is on the active list.
func TestCheckInvariantsQueueMembership(t *testing.T) {
	// Worm 0 holds channel 0->1 for 16 flits; path worm 1 and tree worm 2
	// then queue on it, in that order.
	build := func(t *testing.T) (*Network, int32) {
		n := NewNetwork(topology.NewMesh2D(3, 1))
		injectRoutes(n, []dfr.PathRoute{pathTo(0, 1, 2)}, nil, 16)
		n.Step()
		injectRoutes(n, []dfr.PathRoute{pathTo(0, 1)}, nil, 4)
		injectRoutes(n, nil, []dfr.TreeRoute{{Root: 0, Edges: []dfr.Channel{{From: 0, To: 1}},
			Dests: []topology.NodeID{1}}}, 4)
		n.Step()
		id, _ := n.lookup(dfr.Channel{From: 0, To: 1})
		if err := n.CheckInvariants(); err != nil {
			t.Fatalf("uncorrupted state: %v", err)
		}
		if got := len(n.waiters(id)); got != 2 {
			t.Fatalf("channel 0->1 has %d waiters, want 2", got)
		}
		return n, id
	}
	for _, tc := range []struct {
		name    string
		corrupt func(n *Network, id int32)
		want    string
	}{
		{"path waiter dropped from its FIFO", func(n *Network, id int32) {
			c := &n.chanSt[id]
			c.head = n.qPool[c.head].next
		}, "worm 1 is queued by its state but missing"},
		{"tree waiter dropped from its FIFO", func(n *Network, id int32) {
			c := &n.chanSt[id]
			n.qPool[c.head].next, c.tail = 0, c.head
		}, "worm 2 is queued by its state but missing"},
		{"owner queued on the channel it holds", func(n *Network, id int32) {
			n.chanEnqueue(id, n.chanSt[id].owner)
		}, "worm 0 queued on channel"},
		{"path waiter's state forgets the queue", func(n *Network, id int32) {
			n.slots[n.waiters(id)[0]].queuedAt = -1
		}, "worm 1 queued on channel"},
		{"tree waiter's state forgets the queue", func(n *Network, id int32) {
			n.slots[n.waiters(id)[1]].queuedAt = -1
		}, "worm 2 queued on channel"},
		{"FIFO tail left behind its last waiter", func(n *Network, id int32) {
			n.chanSt[id].tail = n.chanSt[id].head
		}, "FIFO tail is node"},
		{"FIFO node neither queued nor free", func(n *Network, id int32) {
			n.qPool = append(n.qPool, qNode{w: noWorm})
		}, "2 queued and 0 free FIFO nodes in a pool of 3"},
		{"unqueued worm holds a frontier channel", func(n *Network, id int32) {
			injectRoutes(n, []dfr.PathRoute{pathTo(2, 1)}, nil, 4)
			wi := n.active[len(n.active)-1]
			n.chanSt[n.slots[wi].chans[0]].owner = wi
		}, "worm 3 holds channel"},
		{"unqueued path worm left off the active list", func(n *Network, id int32) {
			injectRoutes(n, []dfr.PathRoute{pathTo(2, 1)}, nil, 4)
			n.active = n.active[:len(n.active)-1]
		}, "worm 3 needs a channel it is not queued on but is not active"},
		{"unqueued tree worm left off the active list", func(n *Network, id int32) {
			injectRoutes(n, nil, []dfr.TreeRoute{{Root: 2, Edges: []dfr.Channel{{From: 2, To: 1}},
				Dests: []topology.NodeID{1}}}, 4)
			n.active = n.active[:len(n.active)-1]
		}, "worm 3 needs a channel it is not queued on but is not active"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n, id := build(t)
			tc.corrupt(n, id)
			err := n.CheckInvariants()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("CheckInvariants = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

// TestCheckInvariantsDueLevel corrupts the due level advance reads to
// decide whether to scan a worm's deliveries, and expects CheckInvariants
// to name it. A due level above the least pending delivery would deliver
// late; one below it, or one left on a worm with nothing pending, would
// scan for nothing.
func TestCheckInvariantsDueLevel(t *testing.T) {
	for _, tc := range []struct {
		name  string
		steps int
		due   func(w *worm) int
	}{
		{"raised past the least pending delivery", 1, func(w *worm) int { return w.due + 1 }},
		{"lowered below the least pending delivery", 1, func(w *worm) int { return w.due - 1 }},
		{"cleared while deliveries are pending", 1, func(*worm) int { return noneDue }},
		{"left at a delivered level", 3, func(*worm) int { return 2 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// One path worm of one flit delivers at levels 2 and 4.
			n := NewNetwork(topology.NewMesh2D(5, 1))
			injectRoutes(n, []dfr.PathRoute{{Nodes: []topology.NodeID{0, 1, 2, 3, 4},
				Dests: []topology.NodeID{2, 4}}}, nil, 1)
			for i := 0; i < tc.steps; i++ {
				n.Step()
			}
			if err := n.CheckInvariants(); err != nil {
				t.Fatalf("uncorrupted state: %v", err)
			}
			w := &n.slots[n.worms[0]]
			w.due = tc.due(w)
			err := n.CheckInvariants()
			if want := "worm 0 due level"; err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("CheckInvariants = %v, want an error containing %q", err, want)
			}
		})
	}
}

// TestCheckInvariantsFrontierSpan corrupts the level count and the
// frontier span that advance reads in place of the level bounds, and
// expects CheckInvariants to name them, on a path worm and on a tree
// worm whose levels hold two channels each.
func TestCheckInvariantsFrontierSpan(t *testing.T) {
	plans := []routing.Plan{
		{Paths: []dfr.PathRoute{{Nodes: []topology.NodeID{0, 1, 2, 3, 4}, Dests: []topology.NodeID{4}}}},
		{Trees: []dfr.TreeRoute{{Root: 2, Edges: []dfr.Channel{{From: 2, To: 1}, {From: 2, To: 3},
			{From: 1, To: 0}, {From: 3, To: 4}}, Dests: []topology.NodeID{0, 4}}}},
	}
	for _, tc := range []struct {
		name    string
		corrupt func(w *worm)
		want    string
	}{
		{"span left on the crossed level", func(w *worm) { w.frontLo, w.frontHi = 0, w.levelStart(1) }, "frontier span"},
		{"span one channel too long", func(w *worm) { w.frontHi++ }, "frontier span"},
		{"one level too many", func(w *worm) { w.depth++ }, "levels but its level bounds hold"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, p := range plans {
				n := NewNetwork(topology.NewMesh2D(5, 1))
				n.InjectFlatTag(routing.Flatten(n.topo, p), 4, 0)
				n.Step() // the header crosses level 0
				if err := n.CheckInvariants(); err != nil {
					t.Fatalf("uncorrupted state: %v", err)
				}
				tc.corrupt(&n.slots[n.worms[0]])
				if err := n.CheckInvariants(); err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("%+v: CheckInvariants = %v, want an error containing %q", p, err, tc.want)
				}
			}
		})
	}
}
