package render

import (
	"strings"
	"testing"

	"multicastnet/internal/core"
	"multicastnet/internal/dfr"
	"multicastnet/internal/heuristics"
	"multicastnet/internal/labeling"
	"multicastnet/internal/routing"
	"multicastnet/internal/topology"
)

// TestMeshSmallGolden pins the exact drawing of a tiny pattern: source 0
// to destination 5 on a 3x2 mesh via 0 -> 1 -> 4 -> 5... (one explicit
// channel list).
func TestMeshSmallGolden(t *testing.T) {
	m := topology.NewMesh2D(3, 2)
	k := core.MustMulticastSet(m, 0, []topology.NodeID{5})
	chans := []dfr.Channel{
		{From: 0, To: 1},
		{From: 1, To: 4},
		{From: 4, To: 5},
	}
	got := Mesh(m, k, chans)
	want := "" +
		".   +---D\n" +
		"    |    \n" +
		"S---+   .\n"
	if got != want {
		t.Errorf("golden mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestMeshStarFig613 renders the Fig. 6.13 dual-path star and checks
// structural facts: the source and all nine destinations are marked and
// exactly 33 links are drawn.
func TestMeshStarFig613(t *testing.T) {
	m := topology.NewMesh2D(6, 6)
	l := labeling.NewMeshBoustrophedon(m)
	id := func(x, y int) topology.NodeID { return m.ID(x, y) }
	k := core.MustMulticastSet(m, id(3, 2), []topology.NodeID{
		id(0, 0), id(0, 2), id(0, 5), id(1, 3), id(4, 5),
		id(5, 0), id(5, 1), id(5, 3), id(5, 4)})
	out := MeshPlan(m, k, routing.Plan{Paths: dfr.DualPath(m, l, k).Paths})
	if strings.Count(out, "S") != 1 {
		t.Errorf("expected one source marker:\n%s", out)
	}
	if strings.Count(out, "D") != 9 {
		t.Errorf("expected nine destination markers:\n%s", out)
	}
	links := strings.Count(out, "---") + strings.Count(out, "|")
	if links != 33 {
		t.Errorf("drawing shows %d links, want 33:\n%s", links, out)
	}
}

// TestMeshTreesCoverAllSubnetworks renders the double-channel X-first
// trees of the same example.
func TestMeshTreesCoverAllSubnetworks(t *testing.T) {
	m := topology.NewMesh2D(6, 6)
	id := func(x, y int) topology.NodeID { return m.ID(x, y) }
	k := core.MustMulticastSet(m, id(3, 2), []topology.NodeID{
		id(0, 0), id(0, 5), id(5, 0), id(5, 5)})
	out := MeshPlan(m, k, routing.Plan{Trees: dfr.DoubleChannelXFirst(m, k)})
	if strings.Count(out, "D") != 4 || strings.Count(out, "S") != 1 {
		t.Errorf("markers wrong:\n%s", out)
	}
}

// TestMeshEdgesRendersSTResult renders a greedy ST pattern.
func TestMeshEdgesRendersSTResult(t *testing.T) {
	m := topology.NewMesh2D(8, 8)
	k := core.MustMulticastSet(m, m.ID(2, 7), []topology.NodeID{
		m.ID(0, 5), m.ID(2, 3), m.ID(4, 1), m.ID(6, 3), m.ID(7, 4)})
	res := heuristics.GreedyST(m, k)
	out := MeshEdges(m, k, res.Edges)
	links := strings.Count(out, "---") + strings.Count(out, "|")
	if links != res.Links {
		t.Errorf("drawing shows %d links, traffic is %d:\n%s", links, res.Links, out)
	}
}

// TestMeshIgnoresNonLinks checks that non-mesh channels are skipped, not
// fatal.
func TestMeshIgnoresNonLinks(t *testing.T) {
	m := topology.NewMesh2D(4, 4)
	k := core.MustMulticastSet(m, 0, []topology.NodeID{3})
	out := Mesh(m, k, []dfr.Channel{{From: 0, To: 5}}) // diagonal: not a link
	if !strings.Contains(out, "S") {
		t.Error("source missing")
	}
	if strings.Contains(out, "---") || strings.Contains(out, "|") {
		t.Error("non-link drawn")
	}
}
