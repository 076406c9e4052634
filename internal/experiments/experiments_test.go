package experiments

import (
	"strings"
	"testing"

	"multicastnet/internal/stats"
)

// shapeAbove asserts series a stays strictly above series b at every
// shared x >= from.
func shapeAbove(t *testing.T, fig *stats.Figure, a, b string, from float64) {
	t.Helper()
	shapeAboveRange(t, fig, a, b, from, 1e18)
}

// shapeAboveRange asserts series a stays strictly above series b at every
// shared x in [from, to]; outside the range the curves may cross or
// coincide (e.g. dual- and fixed-path converging once the destination set
// approaches the whole network).
func shapeAboveRange(t *testing.T, fig *stats.Figure, a, b string, from, to float64) {
	t.Helper()
	sa, sb := fig.Get(a), fig.Get(b)
	if sa == nil || sb == nil {
		t.Fatalf("%s: missing series %q or %q", fig.ID, a, b)
	}
	checked := 0
	for i, x := range sa.X {
		if x < from || x > to {
			continue
		}
		if yb, ok := sb.At(x); ok {
			if sa.Y[i] <= yb {
				t.Errorf("%s: %s (%.1f) not above %s (%.1f) at x=%g", fig.ID, a, sa.Y[i], b, yb, x)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatalf("%s: no shared x values between %q and %q", fig.ID, a, b)
	}
}

func TestFig71Shape(t *testing.T) {
	fig := Fig71SortedMPMesh(Quick())
	// One-to-one additional traffic grows with k and dwarfs sorted MP at
	// large k; broadcast is the constant 1023-k line.
	shapeAbove(t, fig, "one-to-one", "sorted MP", 100)
	bc := fig.Get("broadcast")
	for i, x := range bc.X {
		want := 1023 - x
		if bc.Y[i] != want {
			t.Errorf("broadcast additional traffic at k=%g is %.1f, want %.1f", x, bc.Y[i], want)
		}
	}
	// Sorted MP additional traffic is bounded by the Hamilton cycle
	// length.
	mp := fig.Get("sorted MP")
	for i := range mp.X {
		if mp.Y[i] >= 1024 {
			t.Errorf("sorted MP additional traffic %.1f exceeds cycle bound", mp.Y[i])
		}
	}
}

func TestFig72Shape(t *testing.T) {
	fig := Fig72SortedMPCube(Quick())
	shapeAbove(t, fig, "one-to-one", "sorted MP", 100)
}

func TestFig73Shape(t *testing.T) {
	fig := Fig73GreedySTMesh(Quick())
	// Greedy ST beats one-to-one everywhere (trees share channels) and
	// broadcast for moderate k.
	shapeAbove(t, fig, "one-to-one", "greedy ST", 2)
	shapeAbove(t, fig, "broadcast", "greedy ST", 2)
}

func TestFig74Shape(t *testing.T) {
	fig := Fig74GreedySTCube(Quick())
	// The published result: greedy ST improves on LEN.
	shapeAbove(t, fig, "LEN", "greedy ST", 5)
}

func TestFig75Shape(t *testing.T) {
	fig := Fig75MTMesh(Quick())
	shapeAbove(t, fig, "one-to-one", "X-first", 2)
	shapeAbove(t, fig, "X-first", "divided greedy", 5)
}

func TestFig76Fig77Shapes(t *testing.T) {
	// Fixed-path pays for visiting every intermediate label until the
	// destination set covers most of the network, where the paper notes
	// dual- and fixed-path become effectively identical.
	cube := Fig76PathTrafficCube(Quick())
	shapeAboveRange(t, cube, "fixed-path", "dual-path", 2, 30)
	mesh := Fig77PathTrafficMesh(Quick())
	shapeAboveRange(t, mesh, "fixed-path", "dual-path", 2, 30)
	shapeAboveRange(t, mesh, "dual-path", "multi-path", 5, 30)
}

func TestAblations(t *testing.T) {
	lab := AblationLabeling(Quick())
	// The paper's boustrophedon labeling beats the comb cycle labeling in
	// the mid range; with very large destination sets all labelings
	// produce near-spanning paths and the difference washes out.
	shapeAboveRange(t, lab, "comb cycle", "boustrophedon", 5, 20)
	// For tiny sets the orders coincide; from ~10 destinations the
	// unsorted path pays for its zigzags.
	order := AblationDestinationOrder(Quick())
	shapeAbove(t, order, "unsorted path", "sorted MP", 15)
}

func TestFig23Switching(t *testing.T) {
	fig := Fig23Switching()
	shapeAbove(t, fig, "store-and-forward", "wormhole", 1)
	var sb strings.Builder
	if err := fig.WriteTable(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "store-and-forward") {
		t.Error("table rendering incomplete")
	}
}

func TestTables(t *testing.T) {
	for i, fn := range []func(w *strings.Builder) error{
		func(w *strings.Builder) error { return WriteTable51(w) },
		func(w *strings.Builder) error { return WriteTable52(w) },
		func(w *strings.Builder) error { return WriteTable53(w) },
		func(w *strings.Builder) error { return WriteTable54(w) },
		func(w *strings.Builder) error { return ExampleRoutes(w) },
		func(w *strings.Builder) error { return DeadlockDemos(w) },
	} {
		var sb strings.Builder
		if err := fn(&sb); err != nil {
			t.Fatalf("table %d: %v", i, err)
		}
		if sb.Len() == 0 {
			t.Fatalf("table %d produced no output", i)
		}
	}
}

func TestTable52Values(t *testing.T) {
	var sb strings.Builder
	if err := WriteTable52(&sb); err != nil {
		t.Fatal(err)
	}
	// Spot-check two rows against Table 5.2: f(0)=17, f(5)=23.
	out := sb.String()
	if !strings.Contains(out, "   0     1    17") {
		t.Errorf("missing row for node 0:\n%s", out)
	}
	if !strings.Contains(out, "   5     7    23") {
		t.Errorf("missing row for node 5:\n%s", out)
	}
}

func TestExampleRouteValues(t *testing.T) {
	var sb strings.Builder
	if err := ExampleRoutes(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"traffic 8",  // Fig 5.7 path (9..6) uses 8 channels
		"traffic 23", // Fig 5.11 X-first recount
		"Fig 6.13 dual-path, 6x6 mesh: traffic 33, max distance 18",
		"Fig 6.16 multi-path, 6x6 mesh: traffic 21, max distance 6",
		"Fig 6.17 fixed-path, 6x6 mesh: traffic 35, max distance 20",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("example output missing %q:\n%s", want, out)
		}
	}
}

// TestDynamicFigsQuick runs reduced versions of the dynamic figures and
// checks the headline shapes: the tree algorithm saturates before the
// path algorithms as destinations grow, and latency rises with load.
func TestDynamicFigsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("dynamic simulation in -short mode")
	}
	o := DynamicQuick()

	f78 := Fig78LatencyVsLoadDouble(o)
	for _, name := range []string{"tree", "dual-path", "multi-path"} {
		s := f78.Get(name)
		if s == nil || len(s.X) == 0 {
			t.Fatalf("Fig 7.8: series %q empty", name)
		}
		if s.Y[0] < 6.4 {
			t.Errorf("Fig 7.8 %s: light-load latency %.2f below serialization floor", name, s.Y[0])
		}
	}
	// Latency grows (weakly) with load for each scheme.
	for _, s := range f78.Series {
		if len(s.Y) >= 2 && s.Y[len(s.Y)-1] < s.Y[0] {
			t.Errorf("Fig 7.8 %s: latency decreased under load (%.2f -> %.2f)",
				s.Name, s.Y[0], s.Y[len(s.Y)-1])
		}
	}

	f710 := Fig710LatencyVsLoadSingle(o)
	for _, s := range f710.Series {
		if len(s.X) == 0 {
			t.Fatalf("Fig 7.10: series %q empty", s.Name)
		}
	}
}
