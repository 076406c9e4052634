package fault

import (
	"errors"
	"testing"

	"multicastnet/internal/core"
	"multicastnet/internal/dfr"
	"multicastnet/internal/routing"
	"multicastnet/internal/topology"
)

// FuzzFaultMaskCDG fuzzes random fault masks across every registry
// scheme: degraded planning must always yield a plan that validates over
// the masked topology with an acyclic channel dependency graph, or a
// typed ErrPartitioned — never a panic and never an untyped error.
//
// The fuzz input additionally drives a repair interleaving (repairBits
// selects which drawn faults get repaired, one delta at a time) through a
// LiveRouter, asserting at every intermediate epoch that the channel
// dependency graph over every plan produced so far is acyclic: worms
// planned in different epochs may share the network while it turns over.
func FuzzFaultMaskCDG(f *testing.F) {
	f.Add(uint64(1), uint8(2), uint8(0), uint8(0), uint8(0), uint16(0x00F0), uint16(0))
	f.Add(uint64(7), uint8(6), uint8(1), uint8(3), uint8(5), uint16(0x8421), uint16(0x0003))
	f.Add(uint64(99), uint8(12), uint8(2), uint8(8), uint8(15), uint16(0x7FFF), uint16(0xFFFF))
	m := topology.NewMesh2D(4, 4)
	st, err := routing.NewState(m)
	if err != nil {
		f.Fatal(err)
	}
	schemes := routing.Names()
	f.Fuzz(func(t *testing.T, seed uint64, links, nodes, vcs, src uint8, destBits, repairBits uint16) {
		fp := NewPlan(m, Spec{
			Links: int(links) % 16,
			Nodes: int(nodes) % 4,
			VCs:   int(vcs) % 8,
			Seed:  seed,
		})
		events := fp.Events()
		source := topology.NodeID(src) % 16
		var dests []topology.NodeID
		for v := 0; v < 16; v++ {
			if destBits>>v&1 == 1 && topology.NodeID(v) != source {
				dests = append(dests, topology.NodeID(v))
			}
		}
		k, err := core.NewMulticastSet(m, source, dests)
		if err != nil {
			t.Skip()
		}
		masked := maskedOf(m, events)
		for _, name := range schemes {
			dr, err := routerFor(name, st, events)
			if err != nil {
				t.Fatalf("%s: router build: %v", name, err)
			}
			plan, _, err := dr.PlanDegraded(k)
			if err != nil && !errors.Is(err, ErrPartitioned) {
				t.Fatalf("%s: untyped degraded error: %v", name, err)
			}
			if live, ok := liveSubset(m, masked, k); ok && !nodeDeadIn(events, source) {
				if err := plan.Validate(masked, live); err != nil {
					t.Fatalf("%s: degraded plan invalid: %v", name, err)
				}
			}
			rec := dfr.NewDependencyRecorder()
			recordPlan(rec, plan)
			if cyc := rec.FindCycle(); cyc != nil {
				t.Fatalf("%s: dependency cycle under faults: %v", name, cyc)
			}
		}

		// Repair-delta interleaving: drive a dual-path LiveRouter through
		// fail-then-selective-repair deltas, folding every produced plan's
		// dependencies into one recorder; the union must stay acyclic at
		// every epoch.
		lr, err := NewLiveRouter("dual-path", st, routing.Options{})
		if err != nil {
			t.Fatal(err)
		}
		union := dfr.NewDependencyRecorder()
		planInto := func() {
			if !lr.NodeDead(k.Source) {
				plan, _, err := lr.PlanDegraded(k)
				if err != nil && !errors.Is(err, ErrPartitioned) {
					t.Fatalf("live: untyped degraded error: %v", err)
				}
				recordPlan(union, plan)
			}
			if cyc := union.FindCycle(); cyc != nil {
				t.Fatalf("epoch %d: union dependency cycle %v", lr.Epoch(), cyc)
			}
		}
		for _, e := range events {
			lr.ApplyDelta(Delta{Fail: []Event{e}})
			planInto()
		}
		for i, e := range events {
			if repairBits>>(uint(i)%16)&1 == 0 {
				continue
			}
			lr.ApplyDelta(Delta{Repair: []Event{e}})
			planInto()
		}
	})
}
