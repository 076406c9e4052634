package dfr

import (
	"cmp"
	"reflect"
	"slices"
	"testing"

	"multicastnet/internal/core"
	"multicastnet/internal/labeling"
	"multicastnet/internal/stats"
	"multicastnet/internal/topology"
)

// TestLabelSortsMatchComparator checks the packed-key label sorts
// against comparator sorts on random sets of up to every node but the
// source, so the key scratch grows from empty to hundreds of keys:
// HighLowPartition's halves, and sortByLabel in both directions.
func TestLabelSortsMatchComparator(t *testing.T) {
	m := topology.NewMesh2D(20, 16)
	h := topology.NewHypercube(8)
	for _, tc := range []struct {
		topo topology.Topology
		l    labeling.Labeling
	}{
		{m, labeling.NewMeshBoustrophedon(m)},
		{m, labeling.NewMeshColumnMajor(m)},
		{h, labeling.NewHypercubeGray(h)},
	} {
		up := func(a, b topology.NodeID) int { return cmp.Compare(tc.l.Label(a), tc.l.Label(b)) }
		rng := stats.NewRand(59)
		ws := new(Workspace)
		for trial := 0; trial < 200; trial++ {
			k := randomSet(tc.topo, rng, 1+rng.Intn(tc.topo.Nodes()-1))
			var wantH, wantL []topology.NodeID
			for _, d := range k.Dests {
				if tc.l.Label(d) > tc.l.Label(k.Source) {
					wantH = append(wantH, d)
				} else {
					wantL = append(wantL, d)
				}
			}
			slices.SortFunc(wantH, up)
			slices.SortFunc(wantL, up)
			slices.Reverse(wantL)
			if dh, dl := HighLowPartition(tc.l, k); !slices.Equal(dh, wantH) || !slices.Equal(dl, wantL) {
				t.Fatalf("%s trial %d: HighLowPartition gives %v and %v, want %v and %v",
					tc.topo.Name(), trial, dh, dl, wantH, wantL)
			}
			for _, desc := range []bool{false, true} {
				got, want := slices.Clone(k.Dests), slices.Clone(k.Dests)
				ws.sortByLabel(tc.l, got, desc)
				if slices.SortFunc(want, up); desc {
					slices.Reverse(want)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%s trial %d: sortByLabel(desc %v) gives %v, want %v", tc.topo.Name(), trial, desc, got, want)
				}
			}
		}
	}
}

// TestWorkspaceReuse runs every path scheme on one workspace over a
// stream of random sets and requires each star to equal the one a fresh
// workspace writes, so no scratch carries over from call to call; and
// the owned clone a one-shot call returns keeps its routes while the
// pooled workspace behind it is written again.
func TestWorkspaceReuse(t *testing.T) {
	m := topology.NewMesh2D(8, 8)
	h := topology.NewHypercube(6)
	for _, tc := range []struct {
		topo topology.Topology
		l    labeling.Labeling
	}{
		{m, labeling.NewMeshBoustrophedon(m)},
		{h, labeling.NewHypercubeGray(h)},
	} {
		multi := func(ws *Workspace, k core.MulticastSet) Star { return ws.MultiPathCubeOn(h, h, tc.l, k) }
		if tc.topo == topology.Topology(m) {
			multi = func(ws *Workspace, k core.MulticastSet) Star { return ws.MultiPathMeshOn(m, m, tc.l, k) }
		}
		schemes := []func(ws *Workspace, k core.MulticastSet) Star{
			func(ws *Workspace, k core.MulticastSet) Star { return ws.DualPath(tc.topo, tc.l, k) },
			func(ws *Workspace, k core.MulticastSet) Star { return ws.FixedPath(tc.topo, tc.l, k) },
			func(ws *Workspace, k core.MulticastSet) Star { return ws.VirtualChannelPath(tc.topo, tc.l, k, 3) },
			func(ws *Workspace, k core.MulticastSet) Star {
				return ws.AdaptiveDualPath(tc.topo, tc.l, k, IdleOracle())
			},
			multi,
		}
		reused := new(Workspace)
		rng := stats.NewRand(61)
		for trial := 0; trial < 100; trial++ {
			k := randomSet(tc.topo, rng, 1+rng.Intn(tc.topo.Nodes()-1))
			for i, scheme := range schemes {
				want := scheme(new(Workspace), k)
				if got := scheme(reused, k); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s trial %d scheme %d: reused workspace writes %v, fresh one %v",
						tc.topo.Name(), trial, i, got, want)
				}
				owned := oneShot(func(ws *Workspace) Star { return scheme(ws, k) })
				other := randomSet(tc.topo, rng, 1+rng.Intn(tc.topo.Nodes()-1))
				oneShot(func(ws *Workspace) Star { return scheme(ws, other) })
				if !reflect.DeepEqual(owned, want) {
					t.Fatalf("%s trial %d scheme %d: the owned clone changed to %v, want %v",
						tc.topo.Name(), trial, i, owned, want)
				}
			}
		}
	}
}
