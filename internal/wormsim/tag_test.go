package wormsim

import (
	"testing"

	"multicastnet/internal/core"
	"multicastnet/internal/dfr"
	"multicastnet/internal/labeling"
	"multicastnet/internal/routing"
	"multicastnet/internal/stats"
	"multicastnet/internal/topology"
)

// TestInjectFlatTagCompletions pins the tagged-completion contract: every
// tagged injection reports exactly one completion carrying its tag, with
// the latency of the multicast's last delivery.
func TestInjectFlatTagCompletions(t *testing.T) {
	type completion struct {
		tag uint64
		lat int64
	}
	m := topology.NewMesh2D(8, 8)
	st := routing.NewStateWithLabeling(m, labeling.NewMeshBoustrophedon(m))
	r, err := routing.New("dual-path", st)
	if err != nil {
		t.Fatal(err)
	}
	fr := routing.Flat(r, routing.NewPlanCache(0))
	n := NewNetwork(m)
	var got []completion
	var last int64 // latency of the latest delivery
	n.OnDelivery(func(_ topology.NodeID, lat int64, _ int) { last = lat })
	n.OnCompleteTag(func(tag uint64, lat int64) {
		if lat != last {
			t.Errorf("tag %d completed at latency %d, its last delivery at %d", tag, lat, last)
		}
		got = append(got, completion{tag, lat})
	})
	rng := stats.NewRand(7)
	for tag := uint64(1); tag <= 24; tag++ {
		src := topology.NodeID(rng.Intn(m.Nodes()))
		raw := rng.Sample(m.Nodes(), 4, int(src))
		dests := make([]topology.NodeID, len(raw))
		for i, v := range raw {
			dests[i] = topology.NodeID(v)
		}
		k := core.MustMulticastSet(m, src, dests)
		n.InjectFlatTag(fr.FlatSet(k), 8, tag)
	}
	if !runUntilQuiet(n, 10_000) {
		t.Fatal("did not drain")
	}
	if len(got) != 24 {
		t.Fatalf("%d tagged completions, want 24", len(got))
	}
	seen := map[uint64]bool{}
	for _, c := range got {
		if c.tag < 1 || c.tag > 24 || seen[c.tag] {
			t.Fatalf("bad or duplicate tag %d", c.tag)
		}
		seen[c.tag] = true
	}
}

// TestIdleFastForward pins the exported idle fast-forward: jumping the
// clock of a frozen network is exact (a worm injected after the jump sees
// the advanced cycle), and FastForward refuses to move a network with
// movable worms or to run backwards.
func TestIdleFastForward(t *testing.T) {
	m := topology.NewMesh2D(8, 1)
	n := NewNetwork(m)
	if !n.Idle() {
		t.Fatal("fresh network not idle")
	}
	n.FastForward(100)
	if n.Cycle() != 100 {
		t.Fatalf("cycle %d after idle fast-forward, want 100", n.Cycle())
	}
	n.FastForward(50) // backwards: no-op
	if n.Cycle() != 100 {
		t.Fatalf("cycle %d after backwards fast-forward, want 100", n.Cycle())
	}

	var completed int64 = -1
	n.OnCompleteTag(func(_ uint64, c int64) { completed = c })
	const L = 8
	injectRoutes(n, []dfr.PathRoute{pathTo(0, 1, 2, 3)}, nil, L)
	if n.Idle() {
		t.Fatal("network with a movable worm reports idle")
	}
	before := n.Cycle()
	n.FastForward(before + 1000) // movable: no-op
	if n.Cycle() != before {
		t.Fatalf("fast-forward moved a busy network: %d -> %d", before, n.Cycle())
	}
	if !runUntilQuiet(n, 1000) {
		t.Fatal("did not drain")
	}
	if completed != 3+L-1 {
		t.Fatalf("completion latency %d, want %d (fast-forward must not distort)", completed, 3+L-1)
	}
}
