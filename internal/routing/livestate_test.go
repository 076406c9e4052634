package routing

import (
	"reflect"
	"testing"

	"multicastnet/internal/core"
	"multicastnet/internal/stats"
	"multicastnet/internal/topology"
)

// TestLiveStatePlanEquivalence churns a LiveState through a seeded
// fault/repair stream and, at every epoch, requires each registry scheme
// to plan identically over the live state and over a state built from
// scratch with the same dead sets: NewStateWithLabeling over a fresh
// LiveMasked advanced by one delta of every dead link.
// This is the routing-layer half of the churn-equivalence guarantee (the
// fault package pins the degraded-router half).
func TestLiveStatePlanEquivalence(t *testing.T) {
	topos := []topology.Topology{topology.NewMesh2D(5, 4), topology.NewHypercube(4)}
	for _, base := range topos {
		base := base
		t.Run(base.Name(), func(t *testing.T) {
			t.Parallel()
			healthy, err := NewState(base)
			if err != nil {
				t.Fatal(err)
			}
			ls := NewLiveState(healthy)
			if ls.Epoch() != 0 {
				t.Fatal("fresh live state is not at epoch 0")
			}

			links := enumerateLinksTest(base)
			rng := stats.NewRand(0xD317A)
			deadLinks := make(map[topology.Link]bool)
			var schemes []string
			for _, name := range Names() {
				// Tree schemes require a healthy mesh shape only; they
				// plan over s.topo like the rest, so include everything
				// the topology supports.
				if _, buildErr := New(name, healthy); buildErr == nil {
					schemes = append(schemes, name)
				}
			}
			if len(schemes) == 0 {
				t.Fatal("no schemes build on the healthy state")
			}

			for step := 0; step < 12; step++ {
				var d topology.GraphDelta
				if rng.Intn(3) != 0 || len(deadLinks) == 0 {
					l := links[rng.Intn(len(links))]
					if !deadLinks[l] {
						d.FailLinks = append(d.FailLinks, l)
						deadLinks[l] = true
					}
				} else {
					for l := range deadLinks {
						d.RepairLinks = append(d.RepairLinks, l)
						delete(deadLinks, l)
						break
					}
				}
				ls.Apply(d)

				var dl []topology.Link
				for l := range deadLinks {
					dl = append(dl, l)
				}
				fresh := topology.NewLiveMasked(base)
				fresh.Apply(topology.GraphDelta{FailLinks: dl})
				rebuilt := NewStateWithLabeling(fresh, healthy.Labeling())

				k := randomSet(base, rng, 4)
				// Keep the set plannable: skip sets whose members got cut
				// off (schemes assume reachability; the fault layer owns
				// severed traffic).
				reachable := true
				for _, dst := range k.Dests {
					if !ls.Live().Reachable(k.Source, dst) {
						reachable = false
						break
					}
				}
				if !reachable {
					continue
				}
				for _, name := range schemes {
					liveR, err := New(name, ls.State())
					if err != nil {
						t.Fatalf("step %d: %s over live state: %v", step, name, err)
					}
					fullR, err := New(name, rebuilt)
					if err != nil {
						t.Fatalf("step %d: %s over rebuilt state: %v", step, name, err)
					}
					pl, okLive := planOrPanic(liveR, k)
					pf, okFull := planOrPanic(fullR, k)
					if okLive != okFull {
						t.Fatalf("step %d (epoch %d): scheme %s panic status diverged (live ok=%v, full ok=%v)",
							step, ls.Epoch(), name, okLive, okFull)
					}
					if okLive && !reflect.DeepEqual(pl, pf) {
						t.Fatalf("step %d (epoch %d): scheme %s diverged from full rebuild\nlive: %+v\nfull: %+v",
							step, ls.Epoch(), name, pl, pf)
					}
				}
			}
		})
	}
}

// TestLiveStateRouterSurvivesEpochs: a router built once over the live
// state must observe deltas applied after its construction.
func TestLiveStateRouterSurvivesEpochs(t *testing.T) {
	m := topology.NewMesh2D(6, 6)
	healthy, err := NewState(m)
	if err != nil {
		t.Fatal(err)
	}
	ls := NewLiveState(healthy)
	r, err := New("dual-path", ls.State())
	if err != nil {
		t.Fatal(err)
	}
	k := core.MustMulticastSet(m, 0, []topology.NodeID{35})
	before := r.PlanSet(k)

	// Cut a link on the healthy route; the same router must now detour.
	var cut topology.Link
	found := false
	for _, p := range before.Paths {
		if len(p.Nodes) >= 2 {
			cut = topology.NormLink(p.Nodes[0], p.Nodes[1])
			found = true
			break
		}
	}
	if !found {
		t.Fatal("healthy plan has no path edges to cut")
	}
	ls.Apply(topology.GraphDelta{FailLinks: []topology.Link{cut}})
	after := r.PlanSet(k)
	for _, p := range after.Paths {
		for i := 1; i < len(p.Nodes); i++ {
			if topology.NormLink(p.Nodes[i-1], p.Nodes[i]) == cut {
				t.Fatalf("router built before the delta still routes over the dead link %v", cut)
			}
		}
	}
	// Repair restores the original plan exactly.
	ls.Apply(topology.GraphDelta{RepairLinks: []topology.Link{cut}})
	if !reflect.DeepEqual(r.PlanSet(k), before) {
		t.Fatal("plan after fail+repair differs from the healthy plan")
	}
}

// planOrPanic plans k, converting a panic (some schemes reject faulted
// topologies that violate their healthy-path preconditions) into ok=false.
// Equivalence then requires the live and rebuilt states to agree on
// whether the scheme panics, and on the plan when it does not.
func planOrPanic(r Router, k core.MulticastSet) (p Plan, ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	return r.PlanSet(k), true
}

// enumerateLinksTest lists undirected links in canonical order.
func enumerateLinksTest(tp topology.Topology) []topology.Link {
	var links []topology.Link
	var buf []topology.NodeID
	for v := 0; v < tp.Nodes(); v++ {
		buf = tp.Neighbors(topology.NodeID(v), buf[:0])
		for _, w := range buf {
			if topology.NodeID(v) < w {
				links = append(links, topology.Link{U: topology.NodeID(v), V: w})
			}
		}
	}
	return links
}

// TestPlanCacheTargetedInvalidation: a delta evicts exactly the entries
// whose plans traverse a dead channel — route-form and flat entries on
// one shared cache alike; repairs evict nothing.
func TestPlanCacheTargetedInvalidation(t *testing.T) {
	r, _, m := testRouter(t, "dual-path")
	c := NewPlanCache(256)
	cr := Cached(r, c)
	fr := Flat(r, c)

	k1 := core.MustMulticastSet(m, 0, []topology.NodeID{1})   // hugs the top-left corner
	k2 := core.MustMulticastSet(m, 30, []topology.NodeID{35}) // far corner, disjoint
	p1 := cr.PlanSet(k1)
	cr.PlanSet(k2)
	fr.FlatSet(k1)
	f2 := fr.FlatSet(k2)
	if c.Len() != 4 {
		t.Fatalf("Len() = %d, want 4", c.Len())
	}

	// Kill a directed pair on p1's route: only k1's two entries go.
	var pairs []uint64
	for _, p := range p1.Paths {
		if len(p.Nodes) >= 2 {
			pairs = append(pairs,
				ChannelPair(p.Nodes[0], p.Nodes[1]),
				ChannelPair(p.Nodes[1], p.Nodes[0]))
			break
		}
	}
	if len(pairs) == 0 {
		t.Fatal("plan for k1 has no path edges")
	}
	if n := c.Invalidate(pairs); n != 2 {
		t.Fatalf("Invalidate evicted %d entries, want 2 (route form and flat)", n)
	}
	if c.Len() != 2 {
		t.Fatalf("Len() after targeted invalidation = %d, want 2", c.Len())
	}
	if _, _, ok := c.GetPlanAux(r.ID(), k2); !ok {
		t.Fatal("unaffected route-form entry was evicted")
	}
	misses := c.Stats().Misses
	if fr.FlatSet(k2) != f2 || c.Stats().Misses != misses {
		t.Fatal("unaffected flat entry was evicted")
	}
	if fr.FlatSet(k1); c.Stats().Misses != misses+1 {
		t.Fatal("flat entry over the dead link was served after invalidation")
	}
	if st := c.Stats(); st.Invalidations != 2 {
		t.Fatalf("Invalidations = %d, want 2", st.Invalidations)
	}

	// An irrelevant channel evicts nothing.
	if n := c.Invalidate([]uint64{ChannelPair(2, 8)}); n != 0 {
		t.Fatalf("irrelevant channel evicted %d entries", n)
	}

	// Nuke-everything baseline.
	cr.PlanSet(k1)
	if n := c.InvalidateAll(); n != 4 {
		t.Fatalf("InvalidateAll evicted %d, want 4", n)
	}
	if c.Len() != 0 {
		t.Fatalf("Len() after InvalidateAll = %d", c.Len())
	}
}

// TestPlanCacheEvictionCounter: FIFO capacity evictions are counted and
// the FIFO survives interleaved invalidations without double-frees.
func TestPlanCacheEvictionCounter(t *testing.T) {
	r, _, m := testRouter(t, "dual-path")
	c := NewPlanCache(32)
	cr := Cached(r, c)
	rng := stats.NewRand(7)
	for i := 0; i < 400; i++ {
		cr.PlanSet(randomSet(m, rng, 1+rng.Intn(6)))
		if i%37 == 0 {
			c.Invalidate([]uint64{ChannelPair(topology.NodeID(rng.Intn(36)), topology.NodeID(rng.Intn(36)))})
		}
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatal("overfull cache recorded no FIFO evictions")
	}
	if c.Len() > 32 {
		t.Fatalf("cache grew to %d entries past capacity", c.Len())
	}
}
