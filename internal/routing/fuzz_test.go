package routing_test

import (
	"errors"
	"reflect"
	"slices"
	"testing"

	"multicastnet/internal/core"
	"multicastnet/internal/dfr"
	"multicastnet/internal/fault"
	"multicastnet/internal/routing"
	"multicastnet/internal/topology"
)

// fuzzSchemes are the registry's path schemes (no tree classes),
// checked for label monotonicity (the Assertion 2 deadlock-freedom
// argument: every path stays inside either the high- or the low-channel
// subnetwork). fuzzTreeSchemes produce tree routes; they are checked for
// coverage and channel validity only. A new table row is fuzzed with no
// edit here.
var fuzzSchemes, fuzzTreeSchemes = splitSchemes()

// splitSchemes splits the registry's names into path and tree schemes by
// Info.TreeClasses.
func splitSchemes() (paths, trees []string) {
	for _, info := range routing.Schemes() {
		if info.TreeClasses > 0 {
			trees = append(trees, info.Name)
		} else {
			paths = append(paths, info.Name)
		}
	}
	return paths, trees
}

// checkMonotone asserts that a path's labels are strictly monotone — the
// property that keeps the high/low channel subnetworks acyclic.
func checkMonotone(t *testing.T, st *routing.State, name string, p dfr.PathRoute) {
	t.Helper()
	if len(p.Nodes) < 2 {
		return
	}
	up := st.Label(p.Nodes[1]) > st.Label(p.Nodes[0])
	for i := 1; i < len(p.Nodes); i++ {
		prev, cur := st.Label(p.Nodes[i-1]), st.Label(p.Nodes[i])
		if up && cur <= prev {
			t.Fatalf("%s: path %v not label-increasing at hop %d (%d -> %d)",
				name, p.Nodes, i, prev, cur)
		}
		if !up && cur >= prev {
			t.Fatalf("%s: path %v not label-decreasing at hop %d (%d -> %d)",
				name, p.Nodes, i, prev, cur)
		}
	}
}

// checkFlat flattens a healthy plan and checks the flat form against the
// route form, decoding every channel id with a numbering of its own, so
// the check is independent of the flattener's writer. Routes are the
// plan's non-degenerate paths, then its non-degenerate trees, in plan
// order: a path's hop i sits alone at level i, class included; each
// tree edge sits once at the level of its child's depth; a destination's
// level is its path position or its tree depth; and TotalDests counts
// every destination the plan names.
func checkFlat(t *testing.T, name string, m topology.Topology, plan routing.Plan) {
	t.Helper()
	f := routing.Flatten(m, plan)
	num := dfr.NewChannelNumbering(m)
	levels := func(r int) [][]dfr.Channel {
		var out [][]dfr.Channel
		for l := f.RouteOff[r]; l < f.RouteOff[r+1]; l++ {
			var cs []dfr.Channel
			for _, id := range f.Chan[f.LevelOff[l]:f.LevelOff[l+1]] {
				c, ok := num.Channel(id)
				if !ok {
					t.Fatalf("%s: route %d holds id %d, which no channel has", name, r, id)
				}
				cs = append(cs, c)
			}
			out = append(out, cs)
		}
		return out
	}
	checkDests := func(r int, dests []topology.NodeID, level func(topology.NodeID) int) {
		lo, hi := f.DestOff[r], f.DestOff[r+1]
		if int(hi-lo) != len(dests) {
			t.Fatalf("%s: route %d has %d deliveries, want %d", name, r, hi-lo, len(dests))
		}
		for j, d := range dests {
			if got, want := f.DestLevel[lo+int32(j)], level(d); f.Dest[lo+int32(j)] != int32(d) || int(got) != want {
				t.Fatalf("%s: route %d delivery %d is node %d at level %d, want node %d at level %d",
					name, r, j, f.Dest[lo+int32(j)], got, d, want)
			}
		}
	}
	r, total := 0, 0
	for _, p := range plan.Paths {
		total += len(p.Dests)
		if len(p.Nodes) < 2 {
			continue
		}
		lv := levels(r)
		if len(lv) != len(p.Nodes)-1 {
			t.Fatalf("%s: path %v flattened into %d levels", name, p.Nodes, len(lv))
		}
		for i, c := range p.Channels() {
			if len(lv[i]) != 1 || lv[i][0] != c {
				t.Fatalf("%s: path %v level %d holds %v, want %v alone", name, p.Nodes, i, lv[i], c)
			}
		}
		checkDests(r, p.Dests, func(d topology.NodeID) int { return slices.Index(p.Nodes, d) })
		r++
	}
	for _, tr := range plan.Trees {
		total += len(tr.Dests)
		if len(tr.Edges) == 0 {
			continue
		}
		depth := map[topology.NodeID]int{tr.Root: 0}
		edges := map[dfr.Channel]bool{}
		maxd := 0
		for _, e := range tr.Edges {
			depth[e.To] = depth[e.From] + 1
			edges[e] = true
			maxd = max(maxd, depth[e.To])
		}
		lv := levels(r)
		if len(lv) != maxd {
			t.Fatalf("%s: tree of depth %d flattened into %d levels", name, maxd, len(lv))
		}
		for l, cs := range lv {
			for _, c := range cs {
				if !edges[c] || depth[c.To] != l+1 {
					t.Fatalf("%s: tree level %d holds %v, not an edge of the tree at that depth", name, l, c)
				}
				delete(edges, c)
			}
		}
		if len(edges) > 0 {
			t.Fatalf("%s: tree edges %v missing from the flat levels", name, edges)
		}
		checkDests(r, tr.Dests, func(d topology.NodeID) int { return depth[d] })
		r++
	}
	if f.Routes() != r || int(f.TotalDests) != total {
		t.Fatalf("%s: %d routes and %d destinations, want %d and %d", name, f.Routes(), f.TotalDests, r, total)
	}
}

// checkFlatCompute requires a flat router's FlatCompute of k, which
// flattens a registry path scheme straight from its workspace, to equal
// the flattened route form of plan, field for field.
func checkFlatCompute(t *testing.T, name string, r routing.Router, m topology.Topology,
	k core.MulticastSet, plan routing.Plan) {
	t.Helper()
	got, want := routing.Flat(r, routing.NewPlanCache(0)).FlatCompute(k), routing.Flatten(m, plan)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: FlatCompute gives %+v, the flattened PlanSet %+v", name, got, want)
	}
}

// checkDegraded routes k around the link faults of events with the named
// scheme's degraded router and asserts the fault contract: no panic,
// every returned error is a typed partition error, and the plan covers
// exactly the reachable destinations using only live channels. The
// reference is independent of the router: a fresh LiveMasked given the
// dead links for reachability, and each event's own Matches for channel
// liveness.
func checkDegraded(t *testing.T, name string, st *routing.State, events []fault.Event,
	k core.MulticastSet) {
	t.Helper()
	dr, err := fault.NewLiveRouter(name, st, routing.Options{})
	if err != nil {
		t.Fatalf("%s: NewLiveRouter: %v", name, err)
	}
	dr.ApplyDelta(fault.Delta{Fail: events})
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s: PlanDegraded panicked on %d faults: %v",
				name, len(events), r)
		}
	}()
	plan, _, perr := dr.PlanDegraded(k)
	if perr != nil && !errors.Is(perr, fault.ErrPartitioned) {
		t.Fatalf("%s: untyped degraded error: %v", name, perr)
	}
	var dead topology.GraphDelta
	for _, e := range events {
		dead.FailLinks = append(dead.FailLinks, topology.NormLink(e.A, e.B))
	}
	masked := topology.NewLiveMasked(st.Topology())
	masked.Apply(dead)
	channelDead := func(c dfr.Channel) bool {
		for _, e := range events {
			if e.Matches(c) {
				return true
			}
		}
		return false
	}
	var live []topology.NodeID
	for _, d := range k.Dests {
		if masked.Reachable(k.Source, d) {
			live = append(live, d)
		}
	}
	if len(live) < len(k.Dests) && perr == nil {
		t.Fatalf("%s: %d destination(s) severed but no partition error",
			name, len(k.Dests)-len(live))
	}
	if len(live) == 0 {
		return
	}
	lk := core.MulticastSet{Source: k.Source, Dests: live}
	if err := plan.Validate(masked, lk); err != nil {
		t.Fatalf("%s: degraded plan invalid over masked mesh: %v", name, err)
	}
	for _, p := range plan.Paths {
		for i := 1; i < len(p.Nodes); i++ {
			c := dfr.Channel{From: p.Nodes[i-1], To: p.Nodes[i], Class: p.HopClass(i - 1)}
			if channelDead(c) {
				t.Fatalf("%s: degraded plan crosses dead channel %v", name, c)
			}
		}
	}
	for _, tr := range plan.Trees {
		for _, e := range tr.Edges {
			if channelDead(e) {
				t.Fatalf("%s: degraded tree crosses dead channel %v", name, e)
			}
		}
	}
}

// FuzzPlan drives every registry scheme over fuzzer-chosen mesh sizes,
// destination sets, and fault masks, and asserts the routing invariants:
// on healthy hardware the plan covers each destination exactly once,
// uses only real channels, (for the path schemes) every path is
// label-monotone, its flat form carries the same routes (checkFlat), and
// FlatCompute writes that flat form field for field (checkFlatCompute);
// under the fuzzed fault mask the degraded router either
// covers every reachable destination over live channels or reports a
// typed partition error — never a panic.
func FuzzPlan(f *testing.F) {
	f.Add(uint8(4), uint8(4), uint16(0), []byte{5, 10, 15}, uint64(0), uint8(0))
	f.Add(uint8(8), uint8(8), uint16(27), []byte{0, 1, 2, 3, 60, 61, 62, 63}, uint64(7), uint8(9))
	f.Add(uint8(2), uint8(3), uint16(5), []byte{0}, uint64(42), uint8(3))
	f.Add(uint8(7), uint8(2), uint16(13), []byte{1, 1, 1, 12}, uint64(1990), uint8(30))
	f.Fuzz(func(t *testing.T, w, h uint8, src uint16, destBytes []byte,
		faultSeed uint64, faultLinks uint8) {
		width := 2 + int(w)%7  // 2..8
		height := 2 + int(h)%7 // 2..8
		m := topology.NewMesh2D(width, height)
		source := topology.NodeID(int(src) % m.Nodes())
		seen := map[topology.NodeID]bool{source: true}
		var dests []topology.NodeID
		for _, b := range destBytes {
			d := topology.NodeID(int(b) % m.Nodes())
			if !seen[d] {
				seen[d] = true
				dests = append(dests, d)
			}
		}
		if len(dests) == 0 {
			t.Skip("no destinations")
		}
		k, err := core.NewMulticastSet(m, source, dests)
		if err != nil {
			t.Fatalf("set construction: %v", err)
		}
		st, err := routing.NewState(m)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range fuzzSchemes {
			r, err := routing.New(name, st)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			plan := r.PlanSet(k)
			if err := plan.Validate(m, k); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for _, p := range plan.Paths {
				checkMonotone(t, st, name, p)
			}
			checkFlat(t, name, m, plan)
			checkFlatCompute(t, name, r, m, k, plan)
		}
		for _, name := range fuzzTreeSchemes {
			r, err := routing.New(name, st)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			plan := r.PlanSet(k)
			if err := plan.Validate(m, k); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			checkFlat(t, name, m, plan)
			checkFlatCompute(t, name, r, m, k, plan)
		}
		// Fault-mask leg: kill a fuzzer-chosen set of links (at most a
		// third of the mesh, so the mask stays routable often enough to
		// exercise repair, not just partition reporting) and re-check
		// every scheme through its degraded router.
		nLinks := len(fault.EnumerateLinks(m))
		links := int(faultLinks) % (nLinks/3 + 2)
		if links == 0 {
			return
		}
		events := fault.NewPlan(m, fault.Spec{Links: links, Seed: faultSeed}).Events()
		for _, name := range routing.Names() {
			checkDegraded(t, name, st, events, k)
		}
	})
}
