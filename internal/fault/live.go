package fault

import (
	"fmt"

	"multicastnet/internal/core"
	"multicastnet/internal/dfr"
	"multicastnet/internal/routing"
	"multicastnet/internal/topology"
)

// Delta is one batch of fault-model changes: events that fire and events
// that are repaired. It is the unit degraded routing consumes: a
// LiveRouter absorbs a Delta in O(|delta|) instead of rebuilding its
// masked state in O(topology).
//
// A Delta carries Events rather than raw graph changes because the fault
// model is richer than the physical graph: a VCFault kills one directed
// channel copy without touching adjacency.
type Delta struct {
	Fail, Repair []Event
}

// Empty reports a delta with no changes.
func (d Delta) Empty() bool { return len(d.Fail) == 0 && len(d.Repair) == 0 }

// AttachCache gives the router a plan cache consulted by
// PlanDegradedCached and kept consistent by ApplyDelta via targeted
// invalidation. The cache serves this router alone from then on (see
// routing.PlanCache.Own), across every epoch: cached plans survive
// deltas, so unaffected traffic keeps its cache hits across the churn.
func (r *LiveRouter) AttachCache(c *routing.PlanCache) {
	c.Own(r)
	r.cache = c
}

// Epoch returns the number of deltas applied so far.
func (r *LiveRouter) Epoch() uint64 { return r.live.Epoch() }

// NodeDead reports whether node v is dead.
func (r *LiveRouter) NodeDead(v topology.NodeID) bool { return r.live.NodeDead(v) }

// ChannelDead reports whether the directed channel c is unusable: its
// copy failed, its link failed, or either endpoint failed.
func (r *LiveRouter) ChannelDead(c dfr.Channel) bool {
	return r.live.LinkDead(c.From, c.To) || r.deadVC[c]
}

// ApplyDelta absorbs one batch of fault and repair events. It is the only
// place a Delta becomes dead hardware: link and node events patch the
// live masked graph in O(|delta|), and VC events change the dead-copy
// set, since the link's other classes still carry flits. Fail events go
// first and Repair events second, so for hardware both failed and
// repaired in one batch the repair wins. Failing dead hardware and
// repairing healthy hardware are no-ops; repairing a node restores the
// node, not any separately failed incident link.
//
// With an attached cache, plans crossing a channel the delta kills are
// evicted; a VC fault evicts every class of its direction, which is
// conservative, never unsafe. Repairs evict nothing — a plan that avoided
// dead hardware stays valid when the hardware returns; re-optimization
// happens lazily as entries age out or their traffic replans.
func (r *LiveRouter) ApplyDelta(d Delta) {
	var g topology.GraphDelta
	var pairs []uint64
	var buf []topology.NodeID
	for _, e := range d.Fail {
		switch e.Kind {
		case LinkFault:
			g.FailLinks = append(g.FailLinks, topology.NormLink(e.A, e.B))
			pairs = append(pairs, routing.ChannelPair(e.A, e.B), routing.ChannelPair(e.B, e.A))
		case NodeFault:
			g.FailNodes = append(g.FailNodes, e.A)
			buf = r.live.Base().Neighbors(e.A, buf[:0])
			for _, w := range buf {
				pairs = append(pairs, routing.ChannelPair(e.A, w), routing.ChannelPair(w, e.A))
			}
		case VCFault:
			r.deadVC[dfr.Channel{From: e.A, To: e.B, Class: e.Class}] = true
			pairs = append(pairs, routing.ChannelPair(e.A, e.B))
		default:
			panic(fmt.Sprintf("fault: unknown event kind %d", e.Kind))
		}
	}
	for _, e := range d.Repair {
		switch e.Kind {
		case LinkFault:
			g.RepairLinks = append(g.RepairLinks, topology.NormLink(e.A, e.B))
		case NodeFault:
			g.RepairNodes = append(g.RepairNodes, e.A)
		case VCFault:
			delete(r.deadVC, dfr.Channel{From: e.A, To: e.B, Class: e.Class})
		default:
			panic(fmt.Sprintf("fault: unknown event kind %d", e.Kind))
		}
	}
	r.live.Apply(g)
	if r.cache != nil && len(pairs) > 0 {
		r.cache.Invalidate(pairs)
	}
}

// PlanDegradedCached is PlanDegraded through the attached cache, without
// the accounting. Only fully served plans (no unreachable destinations,
// no error) are cached, so a later repair can never surface a stale
// partial plan. served reports that the plan came from the cache.
// Without an attached cache it is PlanDegraded with served=false.
func (r *LiveRouter) PlanDegradedCached(k core.MulticastSet) (plan routing.Plan, served bool, err error) {
	if r.cache != nil {
		if p, ok := r.cache.GetPlan(k); ok {
			return p, true, nil
		}
	}
	plan, _, err = r.PlanDegraded(k)
	if r.cache != nil && err == nil {
		r.cache.PutPlan(k, plan)
	}
	return plan, false, err
}
