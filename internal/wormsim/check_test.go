package wormsim

import (
	"strings"
	"testing"

	"multicastnet/internal/dfr"
	"multicastnet/internal/topology"
)

// TestCheckInvariantsQueueMembership corrupts one wait queue, or the
// worm-side state it mirrors, and expects CheckInvariants to name the
// break of the membership property DetectDeadlock's graph rests on: a
// worm is queued on exactly the channels its header waits for.
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
		id, _ := n.chans.Lookup(dfr.Channel{From: 0, To: 1})
		if err := n.CheckInvariants(); err != nil {
			t.Fatalf("uncorrupted state: %v", err)
		}
		if got := len(n.chanWaiters(id)); got != 2 {
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
			n.chanQueue[id] = append(n.chanQueue[id][:0], n.chanWaiters(id)[1])
		}, "worm 1 is queued by its state but missing"},
		{"tree waiter dropped from its FIFO", func(n *Network, id int32) {
			n.chanQueue[id] = n.chanQueue[id][:1]
		}, "worm 2 is queued by its state but missing"},
		{"owner queued on the channel it holds", func(n *Network, id int32) {
			n.chanEnqueue(id, n.chanOwner[id])
		}, "worm 0 queued on channel"},
		{"path waiter's state forgets the queue", func(n *Network, id int32) {
			n.slots[n.chanWaiters(id)[0]].queuedAt = -1
		}, "worm 1 queued on channel"},
		{"tree waiter's level forgets the queue", func(n *Network, id int32) {
			w := &n.slots[n.chanWaiters(id)[1]]
			w.levels[w.headIdx].queued = false
		}, "worm 2 queued on channel"},
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
