package experiments

import (
	"fmt"

	"multicastnet/internal/routing"
	"multicastnet/internal/stats"
	"multicastnet/internal/switching"
	"multicastnet/internal/topology"
	"multicastnet/internal/wormsim"
)

// DynamicOptions scale the Chapter 7.2 simulations. MaxCycles bounds each
// run; the paper's stopping rule (95% CI within 5% of the mean) applies
// within the bound.
type DynamicOptions struct {
	Seed      uint64
	MaxCycles int64
	Warmup    int
	BatchSize int
	// Parallel is the sweep worker count: each figure point is an
	// independent simulation, fanned out over this many goroutines.
	// 0 selects GOMAXPROCS; 1 runs sequentially. Figures are
	// byte-identical for every value (see RunSweep).
	Parallel int
	// Loads overrides the inter-arrival sweep (mean microseconds between
	// multicasts per node); nil selects the full sweep.
	Loads []float64
	// Dests overrides the destination-count sweep; nil selects the full
	// sweep.
	Dests []int
	// Check runs the wormsim invariant checker inside every simulation —
	// a testing aid (see `mcfigures -simcheck`), slower; violations
	// panic.
	Check bool
}

func (o DynamicOptions) loads() []float64 {
	if o.Loads != nil {
		return o.Loads
	}
	return Loads
}

func (o DynamicOptions) dests() []int {
	if o.Dests != nil {
		return o.Dests
	}
	return DestCounts
}

// DynamicDefaults are full-fidelity settings. The cycle budget bounds the
// runs that never meet the CI stopping rule — the saturated points, whose
// in-flight worm backlog also makes each cycle progressively more
// expensive; past ~1M cycles they only get slower, not tighter.
func DynamicDefaults() DynamicOptions {
	return DynamicOptions{Seed: 1990, MaxCycles: 1_000_000, Warmup: 2000, BatchSize: 1000}
}

// DynamicQuick keeps runs short for benchmarks.
func DynamicQuick() DynamicOptions {
	return DynamicOptions{
		Seed: 1990, MaxCycles: 60_000, Warmup: 200, BatchSize: 200,
		Loads: []float64{1500, 500, 300},
		Dests: []int{1, 10, 25, 45},
	}
}

// Loads is the inter-arrival sweep of Figures 7.8/7.10, in mean
// microseconds between multicasts per node, from light to heavy.
var Loads = []float64{1500, 1000, 700, 500, 400, 300, 250}

// DestCounts is the destination sweep of Figures 7.9/7.11 (1 to 45
// average destinations, 300 us inter-arrival).
var DestCounts = []int{1, 5, 10, 15, 20, 25, 30, 35, 40, 45}

// pointSeed derives the seed of one figure point from the sweep base
// seed and the point's coordinates, so every simulation runs a
// decorrelated workload that is independent of execution order.
func pointSeed(o DynamicOptions, figID, series string, idx int) uint64 {
	return stats.DeriveSeed(o.Seed, fmt.Sprintf("%s/%s/%d", figID, series, idx))
}

// dynamicPoint runs one simulation and returns the mean per-destination
// latency in microseconds. Deadlocked or empty runs return a NaN-free
// sentinel of 0, which the figures render as a gap.
func dynamicPoint(topo topology.Topology, route wormsim.RouteFunc, interUs float64,
	avgDests int, seed uint64, o DynamicOptions) (float64, bool) {
	res, err := wormsim.Run(wormsim.Config{
		Topology:               topo,
		Route:                  route,
		MeanInterarrivalMicros: interUs,
		AvgDests:               avgDests,
		Seed:                   seed,
		WarmupDeliveries:       o.Warmup,
		BatchSize:              o.BatchSize,
		MinBatches:             5,
		MaxCycles:              o.MaxCycles,
		Check:                  o.Check,
	})
	if err != nil {
		panic(err)
	}
	if res.Deadlocked || res.Deliveries == 0 {
		return 0, false
	}
	return res.AvgLatencyMicros, true
}

// loadAxis converts an inter-arrival time to the load value plotted on
// the x axis: multicasts per millisecond per node.
func loadAxis(interUs float64) float64 { return 1000 / interUs }

// namedScheme pairs a series name with its routing scheme.
type namedScheme struct {
	name  string
	route wormsim.RouteFunc
}

// mustState builds the precomputed routing state of t (its canonical
// Hamiltonian labeling); each figure or study builds one per topology.
func mustState(t topology.Topology) *routing.State {
	st, err := routing.NewState(t)
	if err != nil {
		panic(err)
	}
	return st
}

// mustRouter builds the named registry scheme over st.
func mustRouter(name string, st *routing.State, opts routing.Options) routing.Router {
	r, err := routing.NewWithOptions(name, st, opts)
	if err != nil {
		panic(err)
	}
	return r
}

// simRoute builds the named registry scheme over st and adapts it to the
// simulator. It plans uncached: the paper's simulations draw every
// destination set at random, so a figure sweep almost never repeats a
// plan. Registry routers plan from immutable state, so the sweep workers
// of RunSweep share one route function.
func simRoute(name string, st *routing.State, opts routing.Options) wormsim.RouteFunc {
	return wormsim.RouteFuncOf(mustRouter(name, st, opts))
}

// loadSweep builds the points of a latency-vs-load figure: one
// simulation per (scheme, inter-arrival) pair at avgDests destinations.
func loadSweep(fig *stats.Figure, topo topology.Topology, schemes []namedScheme,
	avgDests int, o DynamicOptions) []SweepPoint {
	var points []SweepPoint
	for _, s := range schemes {
		series := fig.AddSeries(s.name)
		for i, inter := range o.loads() {
			route, inter := s.route, inter
			seed := pointSeed(o, fig.ID, s.name, i)
			points = append(points, seriesPoint(series, loadAxis(inter), func() (float64, bool) {
				return dynamicPoint(topo, route, inter, avgDests, seed, o)
			}))
		}
	}
	return points
}

// destSweep builds the points of a latency-vs-destination-count figure at
// a fixed inter-arrival time.
func destSweep(fig *stats.Figure, topo topology.Topology, schemes []namedScheme,
	interUs float64, o DynamicOptions) []SweepPoint {
	var points []SweepPoint
	for _, s := range schemes {
		series := fig.AddSeries(s.name)
		for i, d := range o.dests() {
			route, d := s.route, d
			seed := pointSeed(o, fig.ID, s.name, i)
			points = append(points, seriesPoint(series, float64(d), func() (float64, bool) {
				return dynamicPoint(topo, route, interUs, d, seed, o)
			}))
		}
	}
	return points
}

// Fig78LatencyVsLoadDouble reproduces Fig. 7.8: average network latency
// vs load on a double-channel 8x8 mesh for the tree, dual-path, and
// multi-path algorithms (10 average destinations, 128-byte messages,
// 20 Mbytes/s channels).
func Fig78LatencyVsLoadDouble(o DynamicOptions) *stats.Figure {
	m := topology.NewMesh2D(8, 8)
	st := mustState(m)
	fig := &stats.Figure{ID: "Fig 7.8", Title: "Latency under load, double-channel 8x8 mesh",
		XLabel: "load (multicasts/ms/node)", YLabel: "latency (us)"}
	schemes := []namedScheme{
		{"tree", simRoute("tree", st, routing.Options{})},
		{"dual-path", simRoute("dual-path-double", st, routing.Options{})},
		{"multi-path", simRoute("multi-path-double", st, routing.Options{})},
	}
	RunSweep(loadSweep(fig, m, schemes, 10, o), o.Parallel)
	return fig
}

// Fig79LatencyVsDestsDouble reproduces Fig. 7.9: latency vs destination
// count on the double-channel mesh at 300 us inter-arrival.
func Fig79LatencyVsDestsDouble(o DynamicOptions) *stats.Figure {
	m := topology.NewMesh2D(8, 8)
	st := mustState(m)
	fig := &stats.Figure{ID: "Fig 7.9", Title: "Latency vs destinations, double-channel 8x8 mesh",
		XLabel: "average destinations", YLabel: "latency (us)"}
	schemes := []namedScheme{
		{"tree", simRoute("tree", st, routing.Options{})},
		{"dual-path", simRoute("dual-path-double", st, routing.Options{})},
		{"multi-path", simRoute("multi-path-double", st, routing.Options{})},
	}
	RunSweep(destSweep(fig, m, schemes, 300, o), o.Parallel)
	return fig
}

// Fig710LatencyVsLoadSingle reproduces Fig. 7.10: dual- vs multi-path on
// single channels across loads (10 average destinations).
func Fig710LatencyVsLoadSingle(o DynamicOptions) *stats.Figure {
	m := topology.NewMesh2D(8, 8)
	st := mustState(m)
	fig := &stats.Figure{ID: "Fig 7.10", Title: "Latency under load, single-channel 8x8 mesh",
		XLabel: "load (multicasts/ms/node)", YLabel: "latency (us)"}
	schemes := []namedScheme{
		{"dual-path", simRoute("dual-path", st, routing.Options{})},
		{"multi-path", simRoute("multi-path", st, routing.Options{})},
	}
	RunSweep(loadSweep(fig, m, schemes, 10, o), o.Parallel)
	return fig
}

// Fig711LatencyVsDestsSingle reproduces Fig. 7.11: dual-, multi-, and
// fixed-path on single channels across destination counts under high
// load (300 us inter-arrival), where the multi-path hot-spot effect and
// the dual/fixed convergence appear.
func Fig711LatencyVsDestsSingle(o DynamicOptions) *stats.Figure {
	m := topology.NewMesh2D(8, 8)
	st := mustState(m)
	fig := &stats.Figure{ID: "Fig 7.11", Title: "Latency vs destinations, single-channel 8x8 mesh",
		XLabel: "average destinations", YLabel: "latency (us)"}
	schemes := []namedScheme{
		{"dual-path", simRoute("dual-path", st, routing.Options{})},
		{"multi-path", simRoute("multi-path", st, routing.Options{})},
		{"fixed-path", simRoute("fixed-path", st, routing.Options{})},
	}
	RunSweep(destSweep(fig, m, schemes, 300, o), o.Parallel)
	return fig
}

// FigSchemeLoad builds a latency-vs-load figure for one registry scheme
// on the single-channel 8x8 mesh — the `mcfigures -scheme <name>` entry
// point. Any scheme name from routing.Names() is accepted.
func FigSchemeLoad(name string, o DynamicOptions) (*stats.Figure, error) {
	m := topology.NewMesh2D(8, 8)
	r, err := routing.New(name, mustState(m))
	if err != nil {
		return nil, err
	}
	fig := &stats.Figure{ID: "Scheme " + name,
		Title:  fmt.Sprintf("Latency under load, %s on an 8x8 mesh", name),
		XLabel: "load (multicasts/ms/node)", YLabel: "latency (us)"}
	schemes := []namedScheme{{name, wormsim.RouteFuncOf(r)}}
	RunSweep(loadSweep(fig, m, schemes, 10, o), o.Parallel)
	return fig, nil
}

// Fig23Switching reproduces the Fig. 2.3 comparison: contention-free
// latency vs distance for the four switching technologies with the
// paper's parameters.
func Fig23Switching() *stats.Figure {
	p := switching.DefaultParams()
	fig := &stats.Figure{ID: "Fig 2.3", Title: "Switching technology latency (128-byte message)",
		XLabel: "distance (hops)", YLabel: "latency (us)"}
	techs := []switching.Technology{
		switching.StoreAndForward, switching.VirtualCutThrough,
		switching.CircuitSwitching, switching.Wormhole,
	}
	for _, tech := range techs {
		series := fig.AddSeries(tech.String())
		for d := 0; d <= 20; d += 2 {
			series.Add(float64(d), switching.Latency(tech, p, d))
		}
	}
	return fig
}
