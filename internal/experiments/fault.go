package experiments

import (
	"fmt"

	"multicastnet/internal/fault"
	"multicastnet/internal/mcastsvc"
	"multicastnet/internal/stats"
	"multicastnet/internal/topology"
)

// FaultOptions scale the fault-injection study: delivery ratio and
// operation latency as a function of the fraction of failed links on an
// 8x8 mesh, per deadlock-free multicast scheme.
type FaultOptions struct {
	Seed uint64
	// Trials is the number of independent seeded fault plans per figure
	// point; Ops is the number of multicasts executed against each plan.
	Trials, Ops int
	// Dests is the destination count of every multicast.
	Dests int
	// Horizon spreads fault activations over [0, Horizon) flit cycles, so
	// a share of the faults strikes while worms are in flight.
	Horizon int64
	// Parallel is the sweep worker count (see RunSweep); figures are
	// byte-identical for every value.
	Parallel int
	// Check runs the wormsim invariant checker inside every attempt — a
	// testing aid, slower.
	Check bool
	// Rates overrides the link fault-rate sweep (fractions of the mesh's
	// links); nil selects FaultRates.
	Rates []float64
	// Schemes overrides the scheme series; nil selects the deadlock-free
	// defaults (dual-path, multi-path, tree).
	Schemes []string
}

func (o FaultOptions) rates() []float64 {
	if o.Rates != nil {
		return o.Rates
	}
	return FaultRates
}

func (o FaultOptions) schemes() []string {
	if o.Schemes != nil {
		return o.Schemes
	}
	return []string{"dual-path", "multi-path", "tree"}
}

// FaultRates is the default link fault-rate sweep: the fraction of the
// mesh's bidirectional links killed by each plan.
var FaultRates = []float64{0, 0.02, 0.05, 0.10, 0.15, 0.20}

// FaultDefaults are full-fidelity settings for the committed figures.
func FaultDefaults() FaultOptions {
	return FaultOptions{Seed: 1990, Trials: 40, Ops: 10, Dests: 10, Horizon: 600}
}

// FaultQuick keeps the study short for tests and smoke runs.
func FaultQuick() FaultOptions {
	return FaultOptions{
		Seed: 1990, Trials: 3, Ops: 3, Dests: 8, Horizon: 600,
		Rates: []float64{0, 0.05, 0.10, 0.20},
	}
}

// faultResult aggregates one figure point: the delivery ratio across all
// destinations of all operations, and the mean operation completion time
// (retries and backoffs included).
type faultResult struct {
	ratio   float64
	latency float64
	ops     int
}

// faultPoint executes Trials fault plans x Ops multicasts for one
// (scheme, fault-count) coordinate. Every random draw derives from the
// point seed, so the result is independent of sweep scheduling.
func faultPoint(m topology.Topology, schemeName string, links int, seed uint64,
	o FaultOptions) faultResult {
	svc, err := mcastsvc.New(mcastsvc.Config{Topology: m, SchemeName: schemeName})
	if err != nil {
		panic(err)
	}
	pol := mcastsvc.RetryPolicy{Check: o.Check}
	var delivered, lost, unreachable int
	var sumUs float64
	res := faultResult{}
	for trial := 0; trial < o.Trials; trial++ {
		fp := fault.NewPlan(m, fault.Spec{
			Links:   links,
			Horizon: o.Horizon,
			Seed:    stats.DeriveSeed(seed, fmt.Sprintf("plan/%d", trial)),
		})
		rng := stats.NewRand(stats.DeriveSeed(seed, fmt.Sprintf("ops/%d", trial)))
		for op := 0; op < o.Ops; op++ {
			ids := rng.Sample(m.Nodes(), o.Dests+1)
			members := make([]topology.NodeID, len(ids))
			for j, v := range ids {
				members[j] = topology.NodeID(v)
			}
			g, err := svc.NewGroup(members)
			if err != nil {
				panic(err)
			}
			out, err := svc.MulticastUnderFaults(members[0], g, 0, fp, pol)
			if err != nil {
				panic(err)
			}
			delivered += out.Delivered
			lost += out.Lost
			unreachable += out.Unreachable
			sumUs += out.CompletionMicros
			res.ops++
		}
	}
	if total := delivered + lost + unreachable; total > 0 {
		res.ratio = float64(delivered) / float64(total)
	} else {
		res.ratio = 1
	}
	if res.ops > 0 {
		res.latency = sumUs / float64(res.ops)
	}
	return res
}

// FaultFigures builds the two fault-injection figures over an 8x8 mesh:
// delivery ratio vs link fault rate and mean operation latency vs link
// fault rate, one series per deadlock-free scheme. Each operation runs
// under mcastsvc.MulticastUnderFaults — degraded routing over the fault
// mask, mid-flight fault activation killing in-flight worms, and
// retry/backoff until the attempt budget runs out — so the curves
// measure the whole degraded-mode stack, not just routing.
func FaultFigures(o FaultOptions) (delivery, latency *stats.Figure) {
	m := topology.NewMesh2D(8, 8)
	nLinks := len(fault.EnumerateLinks(m))
	delivery = &stats.Figure{ID: "Fault delivery",
		Title:  "Delivery ratio vs link fault rate, 8x8 mesh",
		XLabel: "failed links (%)", YLabel: "delivery ratio"}
	latency = &stats.Figure{ID: "Fault latency",
		Title:  "Operation latency vs link fault rate, 8x8 mesh",
		XLabel: "failed links (%)", YLabel: "latency (us)"}
	var points []SweepPoint
	for _, scheme := range o.schemes() {
		ds := delivery.AddSeries(scheme)
		ls := latency.AddSeries(scheme)
		for i, rate := range o.rates() {
			links := int(rate*float64(nLinks) + 0.5)
			x := rate * 100
			seed := stats.DeriveSeed(o.Seed, fmt.Sprintf("fault/%s/%d", scheme, i))
			scheme := scheme
			points = append(points, SweepPoint{
				Run: func() any { return faultPoint(m, scheme, links, seed, o) },
				Commit: func(v any) {
					r := v.(faultResult)
					ds.Add(x, r.ratio)
					if r.ops > 0 {
						ls.Add(x, r.latency)
					}
				},
			})
		}
	}
	RunSweep(points, o.Parallel)
	return delivery, latency
}
