package wormsim

import (
	"testing"

	"multicastnet/internal/dfr"
	"multicastnet/internal/labeling"
	"multicastnet/internal/topology"
)

// TestFailWhereKillsHolder fails a channel under an in-flight worm:
// the worm dies, its held channels come free, the lost destination is
// reported, and the audited state stays consistent.
func TestFailWhereKillsHolder(t *testing.T) {
	m := topology.NewMesh2D(5, 1)
	net := NewNetwork(m)
	route := dfr.PathRoute{Nodes: []topology.NodeID{0, 1, 2, 3, 4}, Dests: []topology.NodeID{4}}
	var lost []topology.NodeID
	net.OnLost(func(d topology.NodeID, size int) {
		lost = append(lost, d)
		if size != 1 {
			t.Fatalf("mcast size = %d, want 1", size)
		}
	})
	delivered := false
	net.OnDelivery(func(topology.NodeID, int64, int) { delivered = true })
	injectRoutes(net, []dfr.PathRoute{route}, nil, 8)
	net.Step() // header takes (0,1)
	net.Step() // header takes (1,2)
	killed := net.FailWhere(func(c dfr.Channel) bool {
		return c.From == 1 && c.To == 2
	})
	if killed != 1 {
		t.Fatalf("killed = %d, want 1", killed)
	}
	if got := net.KilledWorms(); got != 1 {
		t.Fatalf("KilledWorms = %d, want 1", got)
	}
	if len(lost) != 1 || lost[0] != 4 {
		t.Fatalf("lost = %v, want [4]", lost)
	}
	if net.ActiveWorms() != 0 {
		t.Fatalf("killed worm still in flight")
	}
	if net.Busy(dfr.Channel{From: 0, To: 1}) {
		t.Fatalf("killed worm left channel (0,1) held")
	}
	if err := net.CheckInvariants(); err != nil {
		t.Fatalf("invariants after kill: %v", err)
	}
	if delivered {
		t.Fatalf("dropped worm delivered")
	}
}

// TestFailWhereKillsWaiter fails the channel a parked worm is queued on;
// the waiter dies and the owner continues to full delivery.
func TestFailWhereKillsWaiter(t *testing.T) {
	m := topology.NewMesh2D(5, 1)
	net := NewNetwork(m)
	a := dfr.PathRoute{Nodes: []topology.NodeID{0, 1, 2, 3, 4}, Dests: []topology.NodeID{4}}
	b := dfr.PathRoute{Nodes: []topology.NodeID{1, 2, 3}, Dests: []topology.NodeID{3}}
	deliveredTo := map[topology.NodeID]bool{}
	net.OnDelivery(func(d topology.NodeID, _ int64, _ int) { deliveredTo[d] = true })
	injectRoutes(net, []dfr.PathRoute{a}, nil, 8)
	net.Step() // A takes (0,1)
	net.Step() // A takes (1,2)
	injectRoutes(net, []dfr.PathRoute{b}, nil, 8)
	net.Step() // B blocks on (1,2), parks
	// Fail channel (2,3): A holds nothing there yet but needs it next; B
	// waits behind A on (1,2). Fail (1,2) instead to hit B's wait.
	if killed := net.FailWhere(func(c dfr.Channel) bool {
		return c.From == 1 && c.To == 2 && c.Class == 0
	}); killed != 2 {
		// Both A (owner) and B (queued) die on that channel.
		t.Fatalf("killed = %d, want 2", killed)
	}
	if err := net.CheckInvariants(); err != nil {
		t.Fatalf("invariants after kill: %v", err)
	}
	if net.ActiveWorms() != 0 {
		t.Fatalf("worms still in flight after both died")
	}
	if len(deliveredTo) != 0 {
		t.Fatalf("unexpected deliveries %v", deliveredTo)
	}
}

// TestInjectionOntoDeadChannel checks a route injected after the fault
// dies at the point of contact, not at injection (the header runs until
// it reaches the failed hardware).
func TestInjectionOntoDeadChannel(t *testing.T) {
	m := topology.NewMesh2D(5, 1)
	net := NewNetwork(m)
	net.FailWhere(func(c dfr.Channel) bool { return c.From == 2 && c.To == 3 })
	var lost int
	net.OnLost(func(topology.NodeID, int) { lost++ })
	route := dfr.PathRoute{Nodes: []topology.NodeID{0, 1, 2, 3, 4}, Dests: []topology.NodeID{4}}
	injectRoutes(net, []dfr.PathRoute{route}, nil, 4)
	for i := 0; i < 10 && net.ActiveWorms() > 0; i++ {
		net.Step()
	}
	if net.ActiveWorms() != 0 || lost != 1 {
		t.Fatalf("worm not dropped on dead channel: active %d lost %d", net.ActiveWorms(), lost)
	}
	if err := net.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestTreeWormDiesOnDeadFrontier checks the lock-step drop rule: one
// dead channel anywhere in the next frontier kills the whole tree worm.
func TestTreeWormDiesOnDeadFrontier(t *testing.T) {
	m := topology.NewMesh2D(3, 3)
	net := NewNetwork(m)
	// Root 4 (center) branches to 3 and 5; depth 2 reaches 0 via 3.
	tree := dfr.TreeRoute{
		Root:  4,
		Dests: []topology.NodeID{5, 0},
		Edges: []dfr.Channel{{From: 4, To: 3}, {From: 4, To: 5}, {From: 3, To: 0}},
	}
	var lost []topology.NodeID
	net.OnLost(func(d topology.NodeID, _ int) { lost = append(lost, d) })
	net.FailWhere(func(c dfr.Channel) bool { return c.From == 3 && c.To == 0 })
	injectRoutes(net, nil, []dfr.TreeRoute{tree}, 4)
	for i := 0; i < 10 && net.ActiveWorms() > 0; i++ {
		net.Step()
	}
	if net.ActiveWorms() != 0 {
		t.Fatalf("tree worm survived dead frontier channel")
	}
	// Both destinations are lost: lock-step trees cannot partially
	// deliver once dropped.
	if len(lost) != 2 {
		t.Fatalf("lost = %v, want both destinations", lost)
	}
	if err := net.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRunWithFaultsDeterministic drives full dynamic runs with a
// mid-run fault schedule and the invariant audit on: results must be
// reproducible field for field, and the delivery accounting must add
// up.
func TestRunWithFaultsDeterministic(t *testing.T) {
	m := topology.NewMesh2D(8, 8)
	l := labeling.NewMeshBoustrophedon(m)
	dead := func(c dfr.Channel) bool {
		// An asymmetric cut through the mesh interior.
		return (c.From == 27 && c.To == 28) || (c.From == 28 && c.To == 27) ||
			(c.From == 35 && c.To == 36) || (c.From == 36 && c.To == 35)
	}
	cfg := Config{
		Topology:               m,
		Route:                  schemeRoute(t, "dual-path", m, l),
		MeanInterarrivalMicros: 300,
		AvgDests:               10,
		Seed:                   11,
		WarmupDeliveries:       100,
		BatchSize:              100,
		MinBatches:             5,
		MaxCycles:              60_000,
		Check:                  true,
		Faults: []ScheduledFault{
			{Cycle: 5_000, Dead: dead},
		},
	}
	first, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Fatalf("faulty runs diverged:\nfirst:  %+v\nsecond: %+v", first, second)
	}
	if first.Lost == 0 {
		t.Fatalf("fault epoch lost nothing; the schedule did not bite: %+v", first)
	}
	if first.WormsKilled == 0 {
		t.Fatalf("no worms killed despite losses")
	}
	if first.Delivered == 0 {
		t.Fatalf("nothing delivered under faults")
	}
	if first.Deadlocked {
		t.Fatalf("fault handling deadlocked the network: %+v", first)
	}
}
