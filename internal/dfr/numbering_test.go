package dfr

import (
	"math"
	"slices"
	"testing"

	"multicastnet/internal/topology"
)

// numberingClasses is the number of channel classes the exhaustive
// numbering tests cover.
const numberingClasses = 4

// baseOf returns the healthy topology a masked view numbers its channels
// by, or t itself.
func baseOf(t topology.Topology) topology.Topology {
	if b, ok := t.(interface{ Base() topology.Topology }); ok {
		return b.Base()
	}
	return t
}

// isLink reports whether u -> v is a link of t's base topology, by its
// neighbor lists rather than by Port.
func isLink(t topology.Topology, u, v topology.NodeID) bool {
	base := baseOf(t)
	return u >= 0 && int(u) < base.Nodes() && slices.Contains(base.Neighbors(u, nil), v)
}

// numberingTopologies covers every topology kind, degenerate meshes and
// radix-2 and radix-3 cubes included, and masked views with dead links
// and a dead node, which number their channels as their base does.
func numberingTopologies() []topology.Topology {
	mesh := topology.NewMesh2D(4, 3)
	live := topology.NewLiveMasked(topology.NewMesh2D(3, 3))
	live.Apply(topology.GraphDelta{FailLinks: []topology.Link{{U: 3, V: 4}, {U: 1, V: 4}}})
	deadNode := topology.NewLiveMasked(mesh)
	deadNode.Apply(topology.GraphDelta{FailNodes: []topology.NodeID{5},
		FailLinks: []topology.Link{{U: 0, V: 1}, {U: 6, V: 10}}})
	return []topology.Topology{
		topology.NewMesh2D(3, 3), mesh,
		topology.NewMesh2D(1, 5), topology.NewMesh2D(5, 1), topology.NewMesh2D(1, 1),
		topology.NewMesh3D(3, 2, 4), topology.NewMesh3D(1, 3, 2), topology.NewMesh3D(2, 1, 1),
		topology.NewHypercube(1), topology.NewHypercube(4),
		topology.NewKAryNCube(2, 3), topology.NewKAryNCube(3, 2), topology.NewKAryNCube(8, 2),
		deadNode, live,
	}
}

// TestChannelNumbering checks the numbering exhaustively on every covered
// topology: each directed link in classes 0-3 encodes to a distinct id
// below classes·N·D that decodes back to it; every other id in that range
// decodes to nothing (its port leads off a border); and every pair of
// nodes in and around the id range that is not a link is refused. A
// masked view gives a link, dead or alive, its base topology's id.
func TestChannelNumbering(t *testing.T) {
	for _, topo := range numberingTopologies() {
		m := NewChannelNumbering(topo)
		baseNum := NewChannelNumbering(baseOf(topo))
		n, limit := topo.Nodes(), int32(numberingClasses*topo.Nodes()*topo.MaxDegree())
		if m.Layer() != n*topo.MaxDegree() {
			t.Fatalf("%s: Layer = %d, want N·D = %d", topo.Name(), m.Layer(), n*topo.MaxDegree())
		}
		byID := make(map[int32]Channel)
		for u := topology.NodeID(0); int(u) < n; u++ {
			for _, v := range baseOf(topo).Neighbors(u, nil) {
				for class := 0; class < numberingClasses; class++ {
					c := Channel{From: u, To: v, Class: class}
					id, ok := m.ID(c)
					if !ok || id < 0 || id >= limit {
						t.Fatalf("%s: ID(%v) = %d, %v, want an id in [0,%d)", topo.Name(), c, id, ok, limit)
					}
					if prev, dup := byID[id]; dup {
						t.Fatalf("%s: %v and %v share id %d", topo.Name(), prev, c, id)
					}
					byID[id] = c
					if back, ok := m.Channel(id); !ok || back != c {
						t.Fatalf("%s: Channel(%d) = %v, %v, want %v", topo.Name(), id, back, ok, c)
					}
					if bid, _ := baseNum.ID(c); bid != id {
						t.Fatalf("%s: %v has id %d, its base topology's id is %d", topo.Name(), c, id, bid)
					}
				}
			}
		}
		for id := int32(0); id < limit; id++ {
			c, ok := m.Channel(id)
			if want, isChan := byID[id]; ok != isChan || c != want {
				t.Fatalf("%s: Channel(%d) = %v, %v; the links give %v, %v", topo.Name(), id, c, ok, want, isChan)
			}
		}
		for u := topology.NodeID(-2); int(u) < n+2; u++ {
			for v := topology.NodeID(-2); int(v) < n+2; v++ {
				if isLink(topo, u, v) {
					continue
				}
				if id, ok := m.ID(Channel{From: u, To: v}); ok {
					t.Fatalf("%s: non-link %d->%d has id %d", topo.Name(), u, v, id)
				}
			}
		}
	}
}

// TestChannelNumberingRefuses pins the named refusals: hops that are
// links by node arithmetic alone (node 9 "above" node 6 and node -1
// "left of" node 0 on a 3x3 mesh, node 16 one bit from node 0 on a
// 4-cube), a step that wraps into the next mesh row, a self-loop, a
// negative class, the first class whose ids would overflow int32, ports
// that lead off a border, and ids outside every layer.
func TestChannelNumberingRefuses(t *testing.T) {
	mesh, cube := topology.NewMesh2D(3, 3), topology.NewHypercube(4)
	for _, tc := range []struct {
		topo topology.Topology
		c    Channel
	}{
		{mesh, Channel{From: 0, To: 4}}, {mesh, Channel{From: 6, To: 9}}, {mesh, Channel{From: 9, To: 6}},
		{mesh, Channel{From: 0, To: -1}}, {mesh, Channel{From: -1, To: 0}},
		{mesh, Channel{From: 2, To: 3}}, {mesh, Channel{From: 3, To: 2}}, {mesh, Channel{From: 4, To: 4}},
		{mesh, Channel{From: 0, To: 1, Class: -1}},
		{mesh, Channel{From: 0, To: 1, Class: (math.MaxInt32 + 1) / 36}},
		{cube, Channel{From: 0, To: 3}}, {cube, Channel{From: 0, To: 16}}, {cube, Channel{From: 16, To: 0}},
		{cube, Channel{From: 5, To: 5}},
		// A 28-cube's one layer already passes int32.
		{topology.NewHypercube(28), Channel{From: 0, To: 1}},
	} {
		if id, ok := NewChannelNumbering(tc.topo).ID(tc.c); ok {
			t.Errorf("%s: ID(%v) = %d, want a refusal", tc.topo.Name(), tc.c, id)
		}
	}
	m := NewChannelNumbering(mesh)
	last := Channel{From: 8, To: 7, Class: (math.MaxInt32+1)/36 - 1}
	if id, ok := m.ID(last); !ok || id != (int32(last.Class)*9+8)*4 {
		t.Errorf("ID(%v) = %d, %v: the last class that fits int32 is refused", last, id, ok)
	}
	// Node 0's x-1 and y-1 ports (0, 2) and node 8's x+1 and y+1 ports
	// (8*4+1, 8*4+3) lead off the mesh.
	for _, id := range []int32{0, 2, 33, 35, -1, math.MaxInt32} {
		if c, ok := m.Channel(id); ok {
			t.Errorf("Channel(%d) = %v, want a refusal", id, c)
		}
	}
}

// FuzzChannelNumbering checks the numbering of fuzzer-chosen topologies
// against their neighbor lists: a channel gets an id exactly when it is a
// link in a class whose layer fits in int32, the id decodes back to it,
// and any id that decodes re-encodes to itself.
func FuzzChannelNumbering(f *testing.F) {
	f.Add(uint8(0), uint8(2), uint8(2), int32(6), int32(9), int32(0), int32(25))
	f.Add(uint8(0), uint8(2), uint8(2), int32(2), int32(3), int32(1), int32(9))
	f.Add(uint8(2), uint8(3), uint8(0), int32(0), int32(16), int32(0), int32(-1))
	f.Add(uint8(3), uint8(1), uint8(1), int32(8), int32(7), int32(3), int32(math.MaxInt32))
	f.Add(uint8(4), uint8(3), uint8(2), int32(1), int32(0), int32(0), int32(1))
	f.Fuzz(func(t *testing.T, kind, a, b uint8, from, to, class, id int32) {
		var topo topology.Topology
		switch kind % 5 {
		case 0:
			topo = topology.NewMesh2D(1+int(a%8), 1+int(b%8))
		case 1:
			topo = topology.NewMesh3D(1+int(a%4), 1+int(b%4), 1+int(a/4%4))
		case 2:
			topo = topology.NewHypercube(1 + int(a%10))
		case 3:
			topo = topology.NewKAryNCube(2+int(a%7), 1+int(b%3))
		default:
			masked := topology.NewLiveMasked(topology.NewMesh2D(2+int(a%7), 1+int(b%8)))
			masked.Apply(topology.GraphDelta{FailLinks: []topology.Link{{U: 0, V: 1}}})
			topo = masked
		}
		m := NewChannelNumbering(topo)
		layer := int64(topo.Nodes() * topo.MaxDegree())
		c := Channel{From: topology.NodeID(from), To: topology.NodeID(to), Class: int(class)}
		want := isLink(topo, c.From, c.To) && class >= 0 && (int64(class)+1)*layer-1 <= math.MaxInt32
		got, ok := m.ID(c)
		if ok != want {
			t.Fatalf("%s: ID(%v) = %d, %v, want ok = %v", topo.Name(), c, got, ok, want)
		}
		if back, bok := m.Channel(got); ok && (!bok || back != c) {
			t.Fatalf("%s: Channel(ID(%v) = %d) = %v, %v", topo.Name(), c, got, back, bok)
		}
		if dc, ok := m.Channel(id); ok {
			if !isLink(topo, dc.From, dc.To) {
				t.Fatalf("%s: Channel(%d) = %v, not a link", topo.Name(), id, dc)
			}
			if re, rok := m.ID(dc); !rok || re != id {
				t.Fatalf("%s: ID(Channel(%d) = %v) = %d, %v", topo.Name(), id, dc, re, rok)
			}
		}
	})
}
