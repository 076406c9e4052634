package dfr

import (
	"multicastnet/internal/core"
	"multicastnet/internal/labeling"
	"multicastnet/internal/topology"
)

// This file implements the Section 8.2 adaptive-routing extension. The
// dissertation notes that "the main issue in providing adaptive routing
// is to avoid deadlock" and that existing adaptive unicast schemes "are
// not directly applicable to the case of multicast communication". The
// observation made executable here: the deadlock-freedom of the Chapter 6
// path schemes rests only on label monotonicity — every hop moves
// strictly toward the target label, so all dependencies point up (or all
// down) the label order. Any choice among the distance-reducing neighbors
// inside the label window therefore preserves the acyclic channel
// dependency graph. Routing may pick that hop adaptively — by channel
// occupancy — and remain deadlock-free.

// ChannelOracle reports live channel occupancy; the simulator implements
// it, letting routes adapt to current traffic at injection time.
type ChannelOracle interface {
	// Busy reports whether the channel is currently held by a worm.
	Busy(c Channel) bool
}

// neverBusy is the idle-network oracle: adaptive routing degenerates to
// the deterministic routing function R.
type neverBusy struct{}

// Busy implements ChannelOracle.
func (neverBusy) Busy(Channel) bool { return false }

// IdleOracle returns an oracle that reports every channel free.
func IdleOracle() ChannelOracle { return neverBusy{} }

// AdaptiveNextHop selects the next hop from u toward v like the routing
// function R, but among the distance-reducing neighbors inside the label
// window it prefers one whose outgoing channel is currently free,
// breaking ties toward the greatest (ascending) or least (descending)
// label exactly as R does. With an idle oracle it returns R's choice.
func AdaptiveNextHop(t topology.Topology, l labeling.Labeling, u, v topology.NodeID,
	class int, oracle ChannelOracle) topology.NodeID {
	var buf [32]topology.NodeID
	return adaptiveNextHopInto(t, l, u, v, class, oracle, buf[:0])
}

// adaptiveNextHopInto is AdaptiveNextHop over the caller's neighbor
// buffer, reused from nbuf[:0], so a plan pays for one buffer instead of
// one per hop.
func adaptiveNextHopInto(t topology.Topology, l labeling.Labeling, u, v topology.NodeID,
	class int, oracle ChannelOracle, nbuf []topology.NodeID) topology.NodeID {
	if u == v {
		panic("dfr: AdaptiveNextHop with u == v")
	}
	lu, lv := l.Label(u), l.Label(v)
	du := t.Distance(u, v)
	var (
		bestFree, bestAny           topology.NodeID
		bestFreeLabel, bestAnyLabel int
		haveFree, haveAny           bool
	)
	better := func(lp, cur int, have bool) bool {
		if !have {
			return true
		}
		if lu < lv {
			return lp > cur
		}
		return lp < cur
	}
	for _, p := range t.Neighbors(u, nbuf[:0]) {
		lp := l.Label(p)
		inWindow := (lu < lv && lp > lu && lp <= lv) || (lu > lv && lp < lu && lp >= lv)
		if !inWindow || t.Distance(p, v) != du-1 {
			continue
		}
		if better(lp, bestAnyLabel, haveAny) {
			bestAny, bestAnyLabel, haveAny = p, lp, true
		}
		if !oracle.Busy(Channel{From: u, To: p, Class: class}) && better(lp, bestFreeLabel, haveFree) {
			bestFree, bestFreeLabel, haveFree = p, lp, true
		}
	}
	if haveFree {
		return bestFree
	}
	if haveAny {
		return bestAny
	}
	// No distance-reducing neighbor in the window (possible only for
	// labelings other than the canonical ones): fall back to R.
	return core.NextHop(t, l, u, v)
}

// adaptiveRouteThrough returns the path row from start through every
// destination in order, routed by AdaptiveNextHop over the plan's
// neighbor buffer nbuf. Its hops are shortest like R's, so the row is
// sized as routeThrough's.
func adaptiveRouteThrough(t topology.Topology, l labeling.Labeling, start topology.NodeID,
	dests []topology.NodeID, class int, oracle ChannelOracle, nbuf []topology.NodeID) []topology.NodeID {
	nodes := newRow(t, start, start, dests)
	cur := start
	for _, d := range dests {
		guard := 0
		for cur != d {
			next := adaptiveNextHopInto(t, l, cur, d, class, oracle, nbuf)
			nodes = append(nodes, next)
			cur = next
			if guard++; guard > t.Nodes()+1 {
				panic("dfr: adaptive routing failed to converge")
			}
		}
	}
	return nodes
}

// AdaptiveDualPath is dual-path routing with congestion-adaptive hop
// selection: the same high/low destination partition and visiting order
// as Fig. 6.11, but each hop avoids currently-busy channels when a free
// distance-reducing in-window alternative exists. Paths remain label-
// monotone, so the scheme is deadlock-free for exactly the Assertion 2
// reason; with an idle oracle it produces DualPath's routes.
func AdaptiveDualPath(t topology.Topology, l labeling.Labeling, k core.MulticastSet,
	oracle ChannelOracle) Star {
	dh, dl := HighLowPartition(l, k)
	nbuf := neighborBuf(t)
	s := Star{Source: k.Source, Paths: pathsFor(dh, dl)}
	for _, g := range [2][]topology.NodeID{dh, dl} {
		if len(g) > 0 {
			s.Paths = append(s.Paths, PathRoute{Nodes: adaptiveRouteThrough(t, l, k.Source, g, 0, oracle, nbuf), Dests: g})
		}
	}
	return s
}
