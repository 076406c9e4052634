package core

import (
	"fmt"

	"multicastnet/internal/labeling"
	"multicastnet/internal/topology"
)

// NextHop is the partial-order-preserving routing function R of
// Sections 6.2.2 and 6.3, defined over a Hamiltonian labeling l. The
// dissertation states R as
//
//	R(u, v) = w, a neighbor of u, with
//	  l(w) = max{ l(p) : l(p) <= l(v), p neighbor of u }  if l(u) < l(v)
//	  l(w) = min{ l(p) : l(p) >= l(v), p neighbor of u }  if l(u) > l(v)
//
// and Lemmas 6.1/6.4 prove R selects shortest, label-monotone paths. The
// lemma proofs are constructive — each hop flips toward v while staying
// inside the label window — and that construction only holds when R is
// read as selecting among the neighbors that lie on a shortest path to v
// (taken literally over all neighbors, the rule is non-shortest on
// hypercubes: from 000 toward 101 in a 3-cube it detours through 010).
// NextHop therefore applies the max/min-label selection over the
// distance-reducing neighbors inside the window, which reproduces both
// lemmas exactly (verified exhaustively by the tests), and falls back to
// the literal rule when no such neighbor exists (possible only for
// labelings other than the paper's, e.g. the "poor" Hamilton path of
// Fig. 6.10). Either way the chosen label moves strictly toward l(v) —
// the Hamilton-path successor/predecessor of u is always in the window —
// so routes stay inside one acyclic channel subnetwork.
func NextHop(t topology.Topology, l labeling.Labeling, u, v topology.NodeID) topology.NodeID {
	var buf [32]topology.NodeID
	return nextHopInto(t, l, u, v, buf[:0])
}

// nextHopInto is NextHop over a caller-provided neighbor buffer, which
// it reuses from buf[:0]. The buffer crosses the Topology interface, so
// a buffer declared per call escapes to the heap; AppendRoute takes its
// caller's buffer instead, so a whole plan can pay for one.
func nextHopInto(t topology.Topology, l labeling.Labeling, u, v topology.NodeID, buf []topology.NodeID) topology.NodeID {
	if u == v {
		panic("core: NextHop with u == v")
	}
	lu, lv := l.Label(u), l.Label(v)
	du := t.Distance(u, v)
	var (
		best      topology.NodeID
		bestLabel int
		found     bool
	)
	neighbors := t.Neighbors(u, buf)
	better := func(lp int) bool {
		if !found {
			return true
		}
		if lu < lv {
			return lp > bestLabel
		}
		return lp < bestLabel
	}
	// Preferred: distance-reducing neighbors strictly inside the label
	// window (the Lemma 6.1/6.4 construction).
	for _, p := range neighbors {
		lp := l.Label(p)
		inWindow := (lu < lv && lp > lu && lp <= lv) || (lu > lv && lp < lu && lp >= lv)
		if inWindow && t.Distance(p, v) == du-1 && better(lp) {
			best, bestLabel, found = p, lp, true
		}
	}
	if found {
		return best
	}
	return nextHopLiteralInto(t, l, u, v, buf)
}

// NextHopLiteral is the routing function R exactly as the dissertation's
// text states it: the max-label neighbor not exceeding l(v) (when routing
// up), or the min-label neighbor not below l(v) (when routing down), over
// all neighbors of u. It is always label-monotone — the Hamilton-path
// successor/predecessor qualifies — but not always minimal.
func NextHopLiteral(t topology.Topology, l labeling.Labeling, u, v topology.NodeID) topology.NodeID {
	var buf [32]topology.NodeID
	return nextHopLiteralInto(t, l, u, v, buf[:0])
}

func nextHopLiteralInto(t topology.Topology, l labeling.Labeling, u, v topology.NodeID, buf []topology.NodeID) topology.NodeID {
	if u == v {
		panic("core: NextHopLiteral with u == v")
	}
	lu, lv := l.Label(u), l.Label(v)
	var (
		best      topology.NodeID
		bestLabel int
		found     bool
	)
	for _, p := range t.Neighbors(u, buf) {
		lp := l.Label(p)
		if lu < lv {
			if lp <= lv && (!found || lp > bestLabel) {
				best, bestLabel, found = p, lp, true
			}
		} else {
			if lp >= lv && (!found || lp < bestLabel) {
				best, bestLabel, found = p, lp, true
			}
		}
	}
	if !found {
		// Cannot happen for a valid Hamiltonian labeling; fail loudly
		// instead of looping forever.
		panic(fmt.Sprintf("core: routing function R stuck at node %d toward %d", u, v))
	}
	return best
}

// RoutePath returns the node sequence (u, ..., v) selected by repeatedly
// applying the routing function R. By Lemmas 6.1 and 6.4 the labels along
// the sequence are strictly monotone, so the walk terminates.
func RoutePath(t topology.Topology, l labeling.Labeling, u, v topology.NodeID) []topology.NodeID {
	var buf [32]topology.NodeID
	return AppendRoute(t, l, u, v, []topology.NodeID{u}, buf[:0])
}

// AppendRoute appends the nodes strictly after u on the route from u to v
// selected by R, and returns the extended slice — RoutePath for callers
// that stitch multi-destination paths (the dual-path and multi-path
// preparation) without a heap-allocated leg per destination. nbuf is the
// caller's neighbor buffer, reused at every hop from nbuf[:0]; give it
// capacity t.MaxDegree() and the walk allocates nothing beyond growing
// dst.
func AppendRoute(t topology.Topology, l labeling.Labeling, u, v topology.NodeID, dst, nbuf []topology.NodeID) []topology.NodeID {
	guard := 0
	for u != v {
		u = nextHopInto(t, l, u, v, nbuf[:0])
		dst = append(dst, u)
		if guard++; guard > t.Nodes()+1 {
			panic("core: routing function R failed to converge")
		}
	}
	return dst
}

// UnicastRouter is a deterministic one-to-one routing function: it
// returns the next hop from u toward dest. The deterministic routers of
// Section 2.3.2 (XY routing for the mesh, E-cube for the hypercube)
// implement it; they are the substrate for the multi-unicast baseline and
// for bypass-node forwarding in the greedy ST algorithm.
type UnicastRouter interface {
	// NextHopUnicast returns the next node on the route from u to dest;
	// u != dest.
	NextHopUnicast(u, dest topology.NodeID) topology.NodeID
}

// XYRouter routes X-first then Y on a 2D mesh — the deterministic
// deadlock-free scheme of Section 2.3.2 used by many machines.
type XYRouter struct {
	Mesh *topology.Mesh2D
}

// NextHopUnicast implements UnicastRouter.
func (r XYRouter) NextHopUnicast(u, dest topology.NodeID) topology.NodeID {
	ux, uy := r.Mesh.XY(u)
	dx, dy := r.Mesh.XY(dest)
	switch {
	case ux < dx:
		return r.Mesh.ID(ux+1, uy)
	case ux > dx:
		return r.Mesh.ID(ux-1, uy)
	case uy < dy:
		return r.Mesh.ID(ux, uy+1)
	case uy > dy:
		return r.Mesh.ID(ux, uy-1)
	default:
		panic("core: XY routing with u == dest")
	}
}

// ECubeRouter resolves address bits from the lowest dimension upward —
// the E-cube deterministic deadlock-free hypercube routing of
// Section 2.3.2.
type ECubeRouter struct {
	Cube *topology.Hypercube
}

// NextHopUnicast implements UnicastRouter.
func (r ECubeRouter) NextHopUnicast(u, dest topology.NodeID) topology.NodeID {
	diff := u ^ dest
	if diff == 0 {
		panic("core: E-cube routing with u == dest")
	}
	bit := diff & -diff // lowest differing dimension
	return u ^ bit
}

// XYZRouter is dimension-ordered routing on a 3D mesh: X, then Y, then Z.
type XYZRouter struct {
	Mesh *topology.Mesh3D
}

// NextHopUnicast implements UnicastRouter.
func (r XYZRouter) NextHopUnicast(u, dest topology.NodeID) topology.NodeID {
	ux, uy, uz := r.Mesh.XYZ(u)
	dx, dy, dz := r.Mesh.XYZ(dest)
	switch {
	case ux < dx:
		return r.Mesh.ID(ux+1, uy, uz)
	case ux > dx:
		return r.Mesh.ID(ux-1, uy, uz)
	case uy < dy:
		return r.Mesh.ID(ux, uy+1, uz)
	case uy > dy:
		return r.Mesh.ID(ux, uy-1, uz)
	case uz < dz:
		return r.Mesh.ID(ux, uy, uz+1)
	case uz > dz:
		return r.Mesh.ID(ux, uy, uz-1)
	default:
		panic("core: XYZ routing with u == dest")
	}
}

// UnicastPath returns the node sequence from u to dest under the given
// deterministic router.
func UnicastPath(r UnicastRouter, u, dest topology.NodeID) []topology.NodeID {
	path := []topology.NodeID{u}
	for u != dest {
		u = r.NextHopUnicast(u, dest)
		path = append(path, u)
	}
	return path
}

// RouterFor returns the canonical deterministic unicast router for the
// supported topologies, or an error for unsupported ones.
func RouterFor(t topology.Topology) (UnicastRouter, error) {
	switch tt := t.(type) {
	case *topology.Mesh2D:
		return XYRouter{Mesh: tt}, nil
	case *topology.Hypercube:
		return ECubeRouter{Cube: tt}, nil
	case *topology.Mesh3D:
		return XYZRouter{Mesh: tt}, nil
	default:
		return nil, fmt.Errorf("core: no deterministic router for %s", t.Name())
	}
}

// LabelingFor returns the dissertation's Hamiltonian labeling for the
// supported topologies: boustrophedon for the 2D mesh (Section 6.2.2),
// Gray-code for the hypercube (Section 6.3), the plane-serpentine
// extension for the 3D mesh (Section 4.3), and the mixed-radix reflected
// serpentine for the general k-ary n-cube (Section 2.1.3).
func LabelingFor(t topology.Topology) (labeling.Labeling, error) {
	switch tt := t.(type) {
	case *topology.Mesh2D:
		return labeling.NewMeshBoustrophedon(tt), nil
	case *topology.Hypercube:
		return labeling.NewHypercubeGray(tt), nil
	case *topology.Mesh3D:
		return labeling.NewMesh3DBoustrophedon(tt), nil
	case *topology.KAryNCube:
		return labeling.NewKAryNCubeSerpentine(tt), nil
	default:
		return nil, fmt.Errorf("core: no Hamiltonian labeling for %s", t.Name())
	}
}
