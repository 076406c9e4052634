package fault

import (
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
// channel copy without touching adjacency. GraphDelta lowers the physical
// part for topology.LiveMasked; DeadChannelPairs lowers the killed
// channels for targeted PlanCache invalidation.
type Delta struct {
	Fail, Repair []Event
}

// Empty reports a delta with no changes.
func (d Delta) Empty() bool { return len(d.Fail) == 0 && len(d.Repair) == 0 }

// GraphDelta lowers the physical-graph part of the delta: link and node
// events map to graph changes, VC events do not (the link's other classes
// still carry flits; the degraded router enforces VC death per channel).
func (d Delta) GraphDelta() topology.GraphDelta {
	var g topology.GraphDelta
	for _, e := range d.Fail {
		switch e.Kind {
		case LinkFault:
			g.FailLinks = append(g.FailLinks, topology.NormLink(e.A, e.B))
		case NodeFault:
			g.FailNodes = append(g.FailNodes, e.A)
		}
	}
	for _, e := range d.Repair {
		switch e.Kind {
		case LinkFault:
			g.RepairLinks = append(g.RepairLinks, topology.NormLink(e.A, e.B))
		case NodeFault:
			g.RepairNodes = append(g.RepairNodes, e.A)
		}
	}
	return g
}

// DeadChannelPairs returns the directed links the delta's Fail events
// kill, as routing.ChannelPair values over t — the argument to
// PlanCache.Invalidate. Repairs contribute nothing: a cached plan that
// avoided a link stays valid when the link returns. A VC fault maps to
// its directed link, over-invalidating the sibling classes of that
// direction — conservative, never unsafe.
func (d Delta) DeadChannelPairs(t topology.Topology) []uint64 {
	var pairs []uint64
	var buf []topology.NodeID
	for _, e := range d.Fail {
		switch e.Kind {
		case LinkFault:
			pairs = append(pairs,
				routing.ChannelPair(e.A, e.B), routing.ChannelPair(e.B, e.A))
		case NodeFault:
			buf = t.Neighbors(e.A, buf[:0])
			for _, w := range buf {
				pairs = append(pairs,
					routing.ChannelPair(e.A, w), routing.ChannelPair(w, e.A))
			}
		case VCFault:
			pairs = append(pairs, routing.ChannelPair(e.A, e.B))
		}
	}
	return pairs
}

// ApplyDelta folds a whole delta into the mask, Fail events first and
// Repair events second: for hardware both failed and repaired in one
// batch, the repair wins — the same order topology.LiveMasked.Apply uses,
// so the mask and the live graph can never disagree on a batch.
func (m *Mask) ApplyDelta(d Delta) {
	for _, e := range d.Fail {
		m.Apply(e)
	}
	for _, e := range d.Repair {
		m.Unapply(e)
	}
}
