package fault

import (
	"errors"
	"fmt"

	"multicastnet/internal/core"
	"multicastnet/internal/dfr"
	"multicastnet/internal/routing"
	"multicastnet/internal/topology"
)

// ErrPartitioned is the sentinel matched by errors.Is when dead hardware
// severs destinations from the source. Plans returned alongside it still
// cover every reachable destination and are still deadlock-free; only
// the listed unreachable destinations are undeliverable.
var ErrPartitioned = errors.New("fault: network partitioned")

// PartitionError reports the destinations dead hardware severed from the
// source. It wraps ErrPartitioned for errors.Is.
type PartitionError struct {
	Scheme      string
	Source      topology.NodeID
	Unreachable []topology.NodeID
}

// Error implements error.
func (e *PartitionError) Error() string {
	return fmt.Sprintf("fault: %s from node %d: %d destination(s) unreachable %v",
		e.Scheme, e.Source, len(e.Unreachable), e.Unreachable)
}

// Is reports ErrPartitioned identity for errors.Is.
func (e *PartitionError) Is(target error) bool { return target == ErrPartitioned }

// PlanStats describes how hard the degraded router had to work for one
// plan — the per-operation degraded-mode accounting surfaced through
// mcastsvc.
type PlanStats struct {
	// FellBack reports the original scheme failed over the masked state
	// and a fallback path scheme produced the plan.
	FellBack bool
	// Repaired reports escape-segment repair was needed for at least one
	// destination.
	Repaired bool
	// Unreachable counts destinations severed from the source.
	Unreachable int
}

// Degraded reports whether the plan needed any degraded-mode treatment.
func (s PlanStats) Degraded() bool { return s.FellBack || s.Repaired || s.Unreachable > 0 }

// LiveRouter is degraded-mode routing for one registry scheme over dead
// hardware that changes by deltas, and the one record of that hardware:
// a topology.LiveMasked view holds the dead nodes and links, the masked
// adjacency and the distance rows, and a set holds the dead channel
// copies, which the graph cannot show. It is built once over the healthy
// state, with no active faults; ApplyDelta absorbs each batch of fault
// and repair events in O(|delta|). A router for a fixed set of faults is
// a fresh NewLiveRouter plus one ApplyDelta(Delta{Fail: events}). It
// implements routing.Router (PlanSet silently drops unreachable
// destinations; use PlanDegraded for the typed partition error and
// accounting).
//
// Plan derivation tries, in order:
//
//  1. The original scheme over the masked State (same labeling, masked
//     adjacency). Most fault patterns are absorbed here: the routing
//     function R simply steers around the dead hardware.
//  2. The masked dual-path and multi-path schemes — the path schemes
//     degrade gracefully because any label-monotone masked walk stays
//     inside the scheme's acyclic subnetworks.
//  3. Escape-segment repair: deterministic BFS legs over the masked
//     graph, split into label-monotone segments with the channel class
//     escalated at every direction reversal (see repair.go). This always
//     succeeds for reachable destinations.
//
// The scheme and its fallbacks are built once over one routing.State of
// the live view and read adjacency through it at plan time, so every
// applied delta is visible to them without a rebuild. When repairs bring
// back every piece of dead hardware, planning bypasses the degraded
// machinery and is byte-identical to the healthy scheme.
//
// Every accepted plan is re-validated against the dead hardware:
// channels must be alive and every path must keep a non-decreasing class
// sequence that is label-monotone within each equal-class run — the
// invariant that keeps the union channel dependency graph acyclic
// (verified in the tests via internal/dfr).
//
// Tree schemes keep their intact (fully alive) quadrant trees and repair
// the destinations of broken trees with escape segments starting above
// the tree's channel classes, so tree dependencies and repair
// dependencies can never form a mixed cycle.
//
// Concurrency follows the epoch protocol: ApplyDelta is a write and must
// be externally synchronized against planning; within an epoch any number
// of goroutines may plan concurrently.
type LiveRouter struct {
	scheme    string
	live      *topology.LiveMasked
	deadVC    map[dfr.Channel]bool // dead channel copies of VC faults
	st        *routing.State       // over live
	inner     routing.Router
	fallbacks []routing.Router
	// treeClasses is the registry's Info.TreeClasses: nonzero for tree
	// schemes, whose repairs start on the first class above the trees'.
	treeClasses int
	cache       *routing.PlanCache
}

// NewLiveRouter builds degraded routing for the named registry scheme
// over the healthy state, with registry options (e.g. the
// virtual-channel copy count). The router starts at epoch 0 with no
// active faults.
func NewLiveRouter(scheme string, healthy *routing.State, opts routing.Options) (*LiveRouter, error) {
	info, err := routing.Lookup(scheme)
	if err != nil {
		return nil, err
	}
	live := topology.NewLiveMasked(healthy.Topology())
	st := routing.NewStateWithLabeling(live, healthy.Labeling())
	inner, err := info.Build(st, opts)
	if err != nil {
		return nil, err
	}
	r := &LiveRouter{
		scheme:      scheme,
		live:        live,
		deadVC:      make(map[dfr.Channel]bool),
		st:          st,
		inner:       inner,
		treeClasses: info.TreeClasses,
	}
	for _, fb := range []string{"dual-path", "multi-path"} {
		if fb == scheme {
			continue
		}
		if fr, err := routing.New(fb, st); err == nil {
			r.fallbacks = append(r.fallbacks, fr)
		}
	}
	return r, nil
}

// Scheme implements routing.Router.
func (r *LiveRouter) Scheme() string { return r.scheme }

// State implements routing.Router: the live masked state plans are
// derived over.
func (r *LiveRouter) State() *routing.State { return r.st }

// PlanSet implements routing.Router: the hot path for the simulator.
// Unreachable destinations are silently dropped from the plan; callers
// needing the typed error use PlanDegraded.
func (r *LiveRouter) PlanSet(k core.MulticastSet) routing.Plan {
	plan, _, _ := r.PlanDegraded(k)
	return plan
}

// PlanDegraded routes k around the dead hardware. The returned plan
// covers every destination still reachable from the source; severed
// destinations are reported via a *PartitionError (matching
// errors.Is(err, ErrPartitioned)). The plan and stats are valid even
// when err != nil.
func (r *LiveRouter) PlanDegraded(k core.MulticastSet) (routing.Plan, PlanStats, error) {
	// With no active fault, planning bypasses the degraded machinery
	// entirely and is byte-identical to the healthy scheme.
	if r.live.Healthy() && len(r.deadVC) == 0 {
		return r.inner.PlanSet(k), PlanStats{}, nil
	}
	if r.live.NodeDead(k.Source) {
		lost := append([]topology.NodeID(nil), k.Dests...)
		return routing.Plan{}, PlanStats{Unreachable: len(lost)},
			&PartitionError{Scheme: r.scheme, Source: k.Source, Unreachable: lost}
	}
	var live, lost []topology.NodeID
	for _, d := range k.Dests {
		if r.live.Reachable(k.Source, d) {
			live = append(live, d)
		} else {
			lost = append(lost, d)
		}
	}
	st := PlanStats{Unreachable: len(lost)}
	var perr error
	if len(lost) > 0 {
		perr = &PartitionError{Scheme: r.scheme, Source: k.Source, Unreachable: lost}
	}
	if len(live) == 0 {
		return routing.Plan{}, st, perr
	}
	lk := core.MulticastSet{Source: k.Source, Dests: live}

	if r.treeClasses > 0 {
		plan, repaired := r.planTrees(lk)
		st.Repaired = repaired
		return plan, st, perr
	}
	if plan, ok := attemptPlan(r.inner, lk); ok && r.planValid(plan, lk) {
		return plan, st, perr
	}
	for _, fb := range r.fallbacks {
		if plan, ok := attemptPlan(fb, lk); ok && r.planValid(plan, lk) {
			st.FellBack = true
			return plan, st, perr
		}
	}
	st.Repaired = true
	return routing.Plan{Paths: r.repairPaths(lk, 0)}, st, perr
}

// planTrees routes a tree-family multicast: quadrant trees untouched by
// dead hardware are kept; destinations of broken trees are served by
// escape paths whose classes start above the tree classes, keeping the
// two dependency families disjoint.
func (r *LiveRouter) planTrees(k core.MulticastSet) (routing.Plan, bool) {
	var out routing.Plan
	var broken []topology.NodeID
	plan, ok := attemptPlan(r.inner, k)
	if !ok {
		broken = k.Dests
	} else {
		for _, tr := range plan.Trees {
			if r.treeAlive(tr) {
				out.Trees = append(out.Trees, tr)
			} else {
				broken = append(broken, tr.Dests...)
			}
		}
	}
	if len(broken) == 0 {
		return out, false
	}
	bk := core.MulticastSet{Source: k.Source, Dests: broken}
	out.Paths = r.repairPaths(bk, r.treeClasses)
	return out, true
}

// treeAlive reports whether a tree route survives the dead hardware
// intact: well-formed over the masked graph with every channel copy alive.
func (r *LiveRouter) treeAlive(tr dfr.TreeRoute) bool {
	if err := tr.Validate(r.live, core.MulticastSet{Source: tr.Root, Dests: tr.Dests}); err != nil {
		return false
	}
	for _, e := range tr.Edges {
		if r.ChannelDead(e) {
			return false
		}
	}
	return true
}

// attemptPlan runs a routing attempt, absorbing panics: the healthy
// routing kernels fail loudly when a masked graph strands them
// (core.NextHopLiteral "stuck", core.RoutePath non-convergence), which
// the degraded router treats as "this scheme cannot serve these faults".
func attemptPlan(rt routing.Router, k core.MulticastSet) (plan routing.Plan, ok bool) {
	defer func() {
		if recover() != nil {
			plan, ok = routing.Plan{}, false
		}
	}()
	return rt.PlanSet(k), true
}

// planValid gates every scheme- or fallback-produced plan: it must
// deliver k over the masked graph, use only live channel copies, and
// every path must satisfy the class-run invariant — non-decreasing
// classes, strictly label-monotone inside each equal-class run — that
// keeps the union channel dependency graph acyclic.
func (r *LiveRouter) planValid(p routing.Plan, k core.MulticastSet) bool {
	if p.Validate(r.live, k) != nil {
		return false
	}
	for _, pr := range p.Paths {
		if !r.pathSafe(pr) {
			return false
		}
		for i := 1; i < len(pr.Nodes); i++ {
			c := dfr.Channel{From: pr.Nodes[i-1], To: pr.Nodes[i], Class: pr.HopClass(i - 1)}
			if r.ChannelDead(c) {
				return false
			}
		}
	}
	for _, tr := range p.Trees {
		for _, e := range tr.Edges {
			if r.ChannelDead(e) {
				return false
			}
		}
	}
	return true
}

// pathSafe checks the class-run invariant on one path: the class
// sequence never decreases, and within one class the labels move
// strictly in one direction. A masked-graph walk that lost monotonicity
// (the routing function R can wander when the Hamiltonian sub-path is
// severed) is rejected here and repaired instead.
func (r *LiveRouter) pathSafe(pr dfr.PathRoute) bool {
	prevClass := -1
	dir := 0
	for i := 0; i+1 < len(pr.Nodes); i++ {
		c := pr.HopClass(i)
		if c < prevClass {
			return false
		}
		if c != prevClass {
			dir = 0
		}
		lu := r.st.Label(pr.Nodes[i])
		lv := r.st.Label(pr.Nodes[i+1])
		d := 1
		if lv < lu {
			d = -1
		} else if lv == lu {
			return false
		}
		if dir == 0 {
			dir = d
		} else if d != dir {
			return false
		}
		prevClass = c
	}
	return true
}
