package fault

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"multicastnet/internal/core"
	"multicastnet/internal/dfr"
	"multicastnet/internal/routing"
	"multicastnet/internal/stats"
	"multicastnet/internal/topology"
)

// churnStep is one draw of the seeded churn stream: fail fresh hardware
// or repair an active fault, spanning all three event kinds.
func drawDelta(rng *stats.Rand, topo topology.Topology, links []topology.Link, active []Event) (Delta, []Event) {
	var d Delta
	if len(active) > 0 && rng.Intn(3) == 0 {
		i := rng.Intn(len(active))
		d.Repair = append(d.Repair, active[i])
		active = append(active[:i], active[i+1:]...)
		return d, active
	}
	var e Event
	switch rng.Intn(4) {
	case 0:
		v := topology.NodeID(rng.Intn(topo.Nodes()))
		e = Event{Kind: NodeFault, A: v}
	case 1:
		l := links[rng.Intn(len(links))]
		e = Event{Kind: VCFault, A: l.U, B: l.V, Class: rng.Intn(2)}
	default:
		l := links[rng.Intn(len(links))]
		e = Event{Kind: LinkFault, A: l.U, B: l.V}
	}
	d.Fail = append(d.Fail, e)
	// Re-failing active hardware is a valid no-op delta but must not be
	// double-counted in the reference active set.
	for _, a := range active {
		if a == e {
			return d, active
		}
	}
	active = append(active, e)
	return d, active
}

// TestChurnEquivalence is the incremental path's invariant: a LiveRouter
// driven by an arbitrary interleaving of fault and repair deltas plans
// byte-identically, at every intermediate step, to a fresh LiveRouter
// given that step's active faults as one delta — for every registry
// scheme on both the mesh and the hypercube. A second LiveRouter with an
// attached plan cache must agree too, whether a plan comes fresh or from
// cache (targeted invalidation must never serve a stale plan). For the
// deadlock-free schemes, the channel dependency graph over every plan
// produced so far, across all epochs, must stay acyclic after every step,
// and the router's dead-hardware answers must match the active events.
func TestChurnEquivalence(t *testing.T) {
	cases := []struct {
		topo topology.Topology
		seed uint64
	}{
		{topology.NewMesh2D(5, 4), 0xC0DE01},
		{topology.NewHypercube(4), 0xC0DE02},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.topo.Name(), func(t *testing.T) {
			t.Parallel()
			st, err := routing.NewState(tc.topo)
			if err != nil {
				t.Fatal(err)
			}
			for _, scheme := range routing.Names() {
				scheme := scheme
				t.Run(scheme, func(t *testing.T) {
					t.Parallel()
					churnScheme(t, tc.topo, st, scheme, stats.DeriveSeed(tc.seed, scheme))
				})
			}
		})
	}
}

func churnScheme(t *testing.T, topo topology.Topology, st *routing.State, scheme string, seed uint64) {
	if _, err := routing.New(scheme, st); err != nil {
		t.Skipf("%s does not build on %s: %v", scheme, topo.Name(), err)
	}
	lr, err := NewLiveRouter(scheme, st, routing.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cached, err := NewLiveRouter(scheme, st, routing.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cache := routing.NewPlanCache(512)
	cached.AttachCache(cache)
	// The union CDG is only acyclic for deadlock-free schemes:
	// naive-tree is the paper's deliberate counterexample, cyclic across
	// concurrent multicasts by design.
	var union *dfr.DependencyRecorder
	if info, err := routing.Lookup(scheme); err == nil && info.DeadlockFree {
		union = dfr.NewDependencyRecorder()
	}

	links := EnumerateLinks(topo)
	rng := stats.NewRand(seed)
	// A fixed working set of multicasts, re-planned every epoch — the
	// realistic churn shape (steady traffic, moving faults) and the one
	// that exercises cache survival across deltas.
	working := randomSets(topo, nil, rng, 6)
	var active []Event
	for step := 0; step < 18; step++ {
		var d Delta
		d, active = drawDelta(rng, topo, links, active)
		lr.ApplyDelta(d)
		cached.ApplyDelta(d)
		checkDeadHardware(t, fmt.Sprintf("step %d", step), lr, topo, active)

		fresh, err := routerFor(scheme, st, active)
		if err != nil {
			t.Fatalf("step %d: fresh router: %v", step, err)
		}
		for _, k := range working {
			if nodeDeadIn(active, k.Source) {
				continue // dead sources are covered by TestSourceDead
			}
			lp, lst, lerr := planNoPanic(t, lr, k)
			sp, sst, serr := planNoPanic(t, fresh, k)
			if !reflect.DeepEqual(lp, sp) {
				t.Fatalf("step %d (epoch %d): live plan diverged from a fresh router for %v\nlive:  %+v\nfresh: %+v",
					step, lr.Epoch(), k, lp, sp)
			}
			if lst != sst {
				t.Fatalf("step %d: stats diverged: live %+v fresh %+v", step, lst, sst)
			}
			if (lerr == nil) != (serr == nil) || (lerr != nil && !errors.Is(lerr, ErrPartitioned)) {
				t.Fatalf("step %d: errors diverged: live %v fresh %v", step, lerr, serr)
			}
			if union != nil {
				recordPlan(union, lp)
			}
			cp, served, cerr := cached.PlanDegradedCached(k)
			if served {
				// A surviving cache entry may predate this epoch; the
				// policy contract is that it is still fully valid over
				// the CURRENT faults (fresh re-optimization is lazy). A
				// cached entry is only ever a fully-served plan, so every
				// destination must still be reachable and delivered.
				if cerr != nil {
					t.Fatalf("step %d: cache hit returned error %v", step, cerr)
				}
				if !fresh.planValid(cp, k) {
					t.Fatalf("step %d: cache served a plan invalid under the current faults for %v", step, k)
				}
			} else {
				if (cerr == nil) != (serr == nil) {
					t.Fatalf("step %d: cached-path error diverged: %v vs %v", step, cerr, serr)
				}
				if !reflect.DeepEqual(cp, sp) {
					t.Fatalf("step %d: cached live router miss-path plan diverged for %v", step, k)
				}
			}
		}
		if union != nil {
			if cyc := union.FindCycle(); cyc != nil {
				t.Fatalf("step %d (epoch %d): union of all plans so far has a dependency cycle %v",
					step, lr.Epoch(), cyc)
			}
		}
	}

	// Drain every remaining fault: the live router must record no dead
	// hardware and plan exactly like the plain healthy scheme again
	// (healthy bypass).
	lr.ApplyDelta(Delta{Repair: active})
	cached.ApplyDelta(Delta{Repair: active})
	if !lr.live.Healthy() || len(lr.deadVC) != 0 {
		t.Fatalf("router still records dead hardware after repairing all %d faults", len(active))
	}
	hr, err := routing.New(scheme, st)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range randomSets(topo, nil, rng, 3) {
		lp, lst, lerr := planNoPanic(t, lr, k)
		if lerr != nil || lst.Degraded() {
			t.Fatalf("healed router still degraded: %+v %v", lst, lerr)
		}
		if hp := hr.PlanSet(k); !reflect.DeepEqual(lp, hp) {
			t.Fatalf("healed live plan differs from the healthy scheme for %v", k)
		}
	}
	if cache.Stats().Hits == 0 {
		t.Error("churn workload never hit the plan cache")
	}
}

// TestLiveRouterTargetedInvalidation: a delta must evict cached plans
// touching the dead hardware and preserve the rest; repairs evict
// nothing.
func TestLiveRouterTargetedInvalidation(t *testing.T) {
	m := topology.NewMesh2D(6, 6)
	st, err := routing.NewState(m)
	if err != nil {
		t.Fatal(err)
	}
	lr, err := NewLiveRouter("dual-path", st, routing.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cache := routing.NewPlanCache(0)
	lr.AttachCache(cache)

	k1 := core.MustMulticastSet(m, 0, []topology.NodeID{1})
	k2 := core.MustMulticastSet(m, 30, []topology.NodeID{35})
	p1, _, _ := lr.PlanDegradedCached(k1)
	lr.PlanDegradedCached(k2)
	if cache.Len() != 2 {
		t.Fatalf("cache holds %d plans, want 2", cache.Len())
	}

	// Fail a link on k1's route.
	var link topology.Link
	found := false
	for _, pr := range p1.Paths {
		if len(pr.Nodes) >= 2 {
			link = topology.NormLink(pr.Nodes[0], pr.Nodes[1])
			found = true
			break
		}
	}
	if !found {
		t.Fatal("healthy plan has no edges")
	}
	lr.ApplyDelta(Delta{Fail: []Event{{Kind: LinkFault, A: link.U, B: link.V}}})
	if n := cache.Stats().Invalidations; n != 1 {
		t.Fatalf("delta evicted %d plans, want exactly k1's", n)
	}
	if _, served, _ := lr.PlanDegradedCached(k2); !served {
		t.Fatal("unaffected plan was evicted")
	}
	// The re-plan must detour and is cached again (fully served).
	p1b, served, _ := lr.PlanDegradedCached(k1)
	if served {
		t.Fatal("evicted plan reported as cache-served")
	}
	if reflect.DeepEqual(p1, p1b) {
		t.Fatal("re-plan over the dead link did not change")
	}

	// Repair: nothing is evicted; the detour plan keeps serving (lazily
	// re-optimized only when it ages out).
	lr.ApplyDelta(Delta{Repair: []Event{{Kind: LinkFault, A: link.U, B: link.V}}})
	if n := cache.Stats().Invalidations; n != 1 {
		t.Fatalf("repair evicted %d plans, want 0", n-1)
	}
	if _, served, _ := lr.PlanDegradedCached(k1); !served {
		t.Fatal("repair evicted the detour plan")
	}
}
