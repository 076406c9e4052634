package fault

import (
	"errors"
	"reflect"
	"testing"

	"multicastnet/internal/core"
	"multicastnet/internal/dfr"
	"multicastnet/internal/routing"
	"multicastnet/internal/topology"
)

// TestPlanDeterministic checks plan generation is a pure function of
// (topology, spec) and actually responds to the seed.
func TestPlanDeterministic(t *testing.T) {
	m := topology.NewMesh2D(6, 6)
	spec := Spec{Links: 5, Nodes: 2, VCs: 3, Horizon: 10_000, Seed: 42}
	a := NewPlan(m, spec)
	b := NewPlan(m, spec)
	if !reflect.DeepEqual(a.Events(), b.Events()) {
		t.Fatalf("equal specs produced different plans:\n%v\n%v", a.Events(), b.Events())
	}
	spec.Seed = 43
	c := NewPlan(m, spec)
	if reflect.DeepEqual(a.Events(), c.Events()) {
		t.Fatalf("different seeds produced identical plans")
	}
	if got := len(a.Events()); got != 10 {
		t.Fatalf("event count: got %d, want 10", got)
	}
	// Events sorted by cycle; the delta stream's epochs ascending and
	// distinct.
	ep := PlanDeltas(a)
	for i := 1; i < len(ep); i++ {
		if ep[i].Cycle <= ep[i-1].Cycle {
			t.Fatalf("epochs not strictly ascending: %d after %d", ep[i].Cycle, ep[i-1].Cycle)
		}
	}
}

// TestPlanCapsAtHardware checks fault counts are capped by the hardware
// present.
func TestPlanCapsAtHardware(t *testing.T) {
	m := topology.NewMesh2D(2, 2) // 4 links
	p := NewPlan(m, Spec{Links: 100, Nodes: 100, Seed: 1})
	links, nodes := 0, 0
	for _, e := range p.Events() {
		switch e.Kind {
		case LinkFault:
			links++
		case NodeFault:
			nodes++
		}
	}
	if links != 4 || nodes != 4 {
		t.Fatalf("got %d links, %d nodes; want 4, 4", links, nodes)
	}
}

// TestMaskSemantics checks the three fault kinds map to the right
// liveness answers: the router's NodeDead and ChannelDead must agree with
// the events' own Matches on every node and channel copy, and the masked
// graph must lose link and node faults but keep a VC-faulted link.
func TestMaskSemantics(t *testing.T) {
	m := topology.NewMesh2D(4, 4)
	st, err := routing.NewState(m)
	if err != nil {
		t.Fatal(err)
	}
	events := []Event{
		{Kind: LinkFault, A: 1, B: 2},
		{Kind: NodeFault, A: 5},
		{Kind: VCFault, A: 8, B: 9, Class: 1},
	}
	lr, err := routerFor("dual-path", st, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkDeadHardware(t, "fresh router", lr, m, nil)
	lr.ApplyDelta(Delta{Fail: events})
	checkDeadHardware(t, "faulted router", lr, m, events)
	// Link fault: both directions, every class.
	for _, c := range []dfr.Channel{{From: 1, To: 2}, {From: 2, To: 1}, {From: 1, To: 2, Class: 3}} {
		if !lr.ChannelDead(c) {
			t.Fatalf("link-fault channel %v alive", c)
		}
	}
	// Node fault: every incident channel.
	if !lr.ChannelDead(dfr.Channel{From: 5, To: 6}) || !lr.ChannelDead(dfr.Channel{From: 4, To: 5}) {
		t.Fatalf("node-fault incident channel alive")
	}
	// VC fault: only the one copy and direction.
	if !lr.ChannelDead(dfr.Channel{From: 8, To: 9, Class: 1}) {
		t.Fatalf("vc-fault channel alive")
	}
	for _, c := range []dfr.Channel{{From: 8, To: 9, Class: 0}, {From: 9, To: 8, Class: 1}} {
		if lr.ChannelDead(c) {
			t.Fatalf("vc fault killed unrelated copy %v", c)
		}
	}
	// Masked topology: link and node faults visible, VC faults not.
	mt := lr.State().Topology()
	if mt.Adjacent(1, 2) || mt.Adjacent(5, 6) {
		t.Fatalf("masked topology kept dead hardware")
	}
	if !mt.Adjacent(8, 9) {
		t.Fatalf("vc fault removed the physical link")
	}
	// Repair is the exact reversal.
	lr.ApplyDelta(Delta{Repair: events})
	checkDeadHardware(t, "repaired router", lr, m, nil)
}

// checkDeadHardware compares the router's NodeDead and ChannelDead with
// the events' Matches on every node and on every channel copy of classes
// 0 to 3.
func checkDeadHardware(t *testing.T, what string, lr *LiveRouter, topo topology.Topology, events []Event) {
	t.Helper()
	var buf []topology.NodeID
	for u := topology.NodeID(0); int(u) < topo.Nodes(); u++ {
		if got, want := lr.NodeDead(u), nodeDeadIn(events, u); got != want {
			t.Fatalf("%s: NodeDead(%d) = %v, want %v", what, u, got, want)
		}
		buf = topo.Neighbors(u, buf[:0])
		for _, w := range buf {
			for class := 0; class < 4; class++ {
				c := dfr.Channel{From: u, To: w, Class: class}
				if got, want := lr.ChannelDead(c), channelDeadIn(events, c); got != want {
					t.Fatalf("%s: ChannelDead(%v) = %v, want %v", what, c, got, want)
				}
			}
		}
	}
}

// routerFor builds the degraded router for a fixed fault set from
// scratch: a fresh LiveRouter advanced by one fail-only delta.
func routerFor(scheme string, st *routing.State, events []Event) (*LiveRouter, error) {
	r, err := NewLiveRouter(scheme, st, routing.Options{})
	if err != nil {
		return nil, err
	}
	r.ApplyDelta(Delta{Fail: events})
	return r, nil
}

// maskedOf is the reference masked graph of events: a fresh LiveMasked
// advanced by one GraphDelta of their link and node faults. VC faults
// leave the physical graph alone.
func maskedOf(topo topology.Topology, events []Event) *topology.LiveMasked {
	var g topology.GraphDelta
	for _, e := range events {
		switch e.Kind {
		case LinkFault:
			g.FailLinks = append(g.FailLinks, topology.NormLink(e.A, e.B))
		case NodeFault:
			g.FailNodes = append(g.FailNodes, e.A)
		}
	}
	v := topology.NewLiveMasked(topo)
	v.Apply(g)
	return v
}

// nodeDeadIn reports whether events kill node v.
func nodeDeadIn(events []Event, v topology.NodeID) bool {
	for _, e := range events {
		if e.Kind == NodeFault && e.A == v {
			return true
		}
	}
	return false
}

// channelDeadIn reports whether any of events kills the channel c.
func channelDeadIn(events []Event, c dfr.Channel) bool {
	for _, e := range events {
		if e.Matches(c) {
			return true
		}
	}
	return false
}

// mustSet builds a multicast set over t.
func mustSet(t *testing.T, topo topology.Topology, src topology.NodeID, dests []topology.NodeID) core.MulticastSet {
	t.Helper()
	k, err := core.NewMulticastSet(topo, src, dests)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// TestHealthyMaskIdentity checks that a degraded router over an empty
// mask produces byte-identical plans to the plain registry scheme.
func TestHealthyMaskIdentity(t *testing.T) {
	m := topology.NewMesh2D(8, 8)
	st, err := routing.NewState(m)
	if err != nil {
		t.Fatal(err)
	}
	k := mustSet(t, m, 27, []topology.NodeID{0, 5, 14, 40, 63})
	for _, name := range routing.Names() {
		plain, err := routing.New(name, st)
		if err != nil {
			t.Fatal(err)
		}
		dr, err := routerFor(name, st, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, stats, err := dr.PlanDegraded(k)
		if err != nil {
			t.Fatalf("%s: healthy plan errored: %v", name, err)
		}
		if stats.Degraded() {
			t.Fatalf("%s: healthy plan marked degraded: %+v", name, stats)
		}
		if !reflect.DeepEqual(got, plain.PlanSet(k)) {
			t.Fatalf("%s: healthy degraded plan differs from plain plan", name)
		}
	}
}

// TestDegradedRoutesAroundLinkFaults kills links on the dual-path route
// and checks every scheme still delivers everything.
func TestDegradedRoutesAroundLinkFaults(t *testing.T) {
	m := topology.NewMesh2D(4, 4)
	st, err := routing.NewState(m)
	if err != nil {
		t.Fatal(err)
	}
	events := []Event{{Kind: LinkFault, A: 5, B: 6}, {Kind: LinkFault, A: 9, B: 10}}
	k := mustSet(t, m, 5, []topology.NodeID{0, 6, 10, 15})
	masked := maskedOf(m, events)
	for _, name := range routing.Names() {
		dr, err := routerFor(name, st, events)
		if err != nil {
			t.Fatal(err)
		}
		plan, _, err := dr.PlanDegraded(k)
		if err != nil {
			t.Fatalf("%s: %v (mesh still connected)", name, err)
		}
		if err := plan.Validate(masked, k); err != nil {
			t.Fatalf("%s: degraded plan invalid: %v", name, err)
		}
		forEachChannel(plan, func(c dfr.Channel) {
			if channelDeadIn(events, c) {
				t.Fatalf("%s: plan uses dead channel %v", name, c)
			}
		})
	}
}

// TestPartitionError cuts off a corner node and checks the typed error
// plus a valid plan for the surviving destinations.
func TestPartitionError(t *testing.T) {
	m := topology.NewMesh2D(4, 4)
	st, err := routing.NewState(m)
	if err != nil {
		t.Fatal(err)
	}
	// Node 15 is the corner (3,3): links to 14 and 11.
	events := []Event{{Kind: LinkFault, A: 14, B: 15}, {Kind: LinkFault, A: 11, B: 15}}
	k := mustSet(t, m, 0, []topology.NodeID{3, 12, 15})
	for _, name := range routing.Names() {
		dr, err := routerFor(name, st, events)
		if err != nil {
			t.Fatal(err)
		}
		plan, stats, err := dr.PlanDegraded(k)
		if !errors.Is(err, ErrPartitioned) {
			t.Fatalf("%s: want ErrPartitioned, got %v", name, err)
		}
		var pe *PartitionError
		if !errors.As(err, &pe) {
			t.Fatalf("%s: error is not a *PartitionError: %v", name, err)
		}
		if len(pe.Unreachable) != 1 || pe.Unreachable[0] != 15 {
			t.Fatalf("%s: unreachable = %v, want [15]", name, pe.Unreachable)
		}
		if stats.Unreachable != 1 {
			t.Fatalf("%s: stats.Unreachable = %d", name, stats.Unreachable)
		}
		live := mustSet(t, m, 0, []topology.NodeID{3, 12})
		if err := plan.Validate(maskedOf(m, events), live); err != nil {
			t.Fatalf("%s: surviving plan invalid: %v", name, err)
		}
	}
}

// TestSourceDead checks a dead source yields a full partition error and
// an empty plan.
func TestSourceDead(t *testing.T) {
	m := topology.NewMesh2D(4, 4)
	st, err := routing.NewState(m)
	if err != nil {
		t.Fatal(err)
	}
	dr, err := routerFor("dual-path", st, []Event{{Kind: NodeFault, A: 5}})
	if err != nil {
		t.Fatal(err)
	}
	plan, stats, err := dr.PlanDegraded(mustSet(t, m, 5, []topology.NodeID{1, 2}))
	if !errors.Is(err, ErrPartitioned) {
		t.Fatalf("want ErrPartitioned for dead source, got %v", err)
	}
	if plan.Messages() != 0 || stats.Unreachable != 2 {
		t.Fatalf("dead source produced a plan: %+v stats %+v", plan, stats)
	}
}

// TestVCFaultAvoided checks a virtual-channel fault reroutes that copy
// without touching the physical graph.
func TestVCFaultAvoided(t *testing.T) {
	m := topology.NewMesh2D(4, 4)
	st, err := routing.NewState(m)
	if err != nil {
		t.Fatal(err)
	}
	k := mustSet(t, m, 0, []topology.NodeID{3})
	// Find a class-0 channel the healthy dual-path plan uses and kill it.
	plain, _ := routing.New("dual-path", st)
	healthy := plain.PlanSet(k)
	ch := healthy.Paths[0].Channels()[0]
	events := []Event{{Kind: VCFault, A: ch.From, B: ch.To, Class: ch.Class}}
	dr, err := routerFor("dual-path", st, events)
	if err != nil {
		t.Fatal(err)
	}
	plan, stats, err := dr.PlanDegraded(k)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Degraded() {
		t.Fatalf("vc fault on the route did not degrade the plan")
	}
	forEachChannel(plan, func(c dfr.Channel) {
		if channelDeadIn(events, c) {
			t.Fatalf("plan uses dead channel copy %v", c)
		}
	})
	if err := plan.Validate(m, k); err != nil {
		t.Fatalf("plan invalid over the (physically intact) mesh: %v", err)
	}
}

// forEachChannel visits every channel of a plan with per-hop classes
// resolved.
func forEachChannel(p routing.Plan, fn func(dfr.Channel)) {
	for _, pr := range p.Paths {
		for i := 1; i < len(pr.Nodes); i++ {
			fn(dfr.Channel{From: pr.Nodes[i-1], To: pr.Nodes[i], Class: pr.HopClass(i - 1)})
		}
	}
	for _, tr := range p.Trees {
		for _, e := range tr.Edges {
			fn(e)
		}
	}
}
