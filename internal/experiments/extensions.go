package experiments

import (
	"multicastnet/internal/core"
	"multicastnet/internal/heuristics"
	"multicastnet/internal/routing"
	"multicastnet/internal/stats"
	"multicastnet/internal/topology"
	"multicastnet/internal/wormsim"
)

// The Ext* figures exercise the dissertation's Section 8.2 future-work
// directions that this repository implements: virtual-channel network
// partitioning and the unicast/multicast traffic interaction study.

// ExtVirtualChannelsStatic measures additional traffic and worst
// source-to-destination distance of the virtual-channel scheme for
// v = 1, 2, 4 copies on an 8x8 mesh. More copies shorten the worst path
// (each path covers a narrower label interval) at a modest traffic cost
// (each extra path pays its own startup leg).
func ExtVirtualChannelsStatic(opts Options) *stats.Figure {
	m := topology.NewMesh2D(8, 8)
	st := mustState(m)
	fig := &stats.Figure{ID: "Ext V", Title: "Virtual-channel partitioning on an 8x8 mesh (Section 8.2)",
		XLabel: "destinations", YLabel: "additional traffic / max distance"}
	type variant struct {
		name   string
		router routing.Router
	}
	var variants []variant
	for _, v := range []int{1, 2, 4} {
		variants = append(variants, variant{vName(v),
			mustRouter("virtual-channel", st, routing.Options{VirtualChannels: v})})
	}
	traffic := make(map[string]*stats.Series)
	maxDist := make(map[string]*stats.Series)
	for _, vt := range variants {
		traffic[vt.name] = fig.AddSeries(vt.name + " traffic")
		maxDist[vt.name] = fig.AddSeries(vt.name + " max-dist")
	}
	// Same three-stage split as staticSweep: serial workload generation,
	// parallel plan evaluation into disjoint slices, serial fold in rep
	// order — the figure bytes are independent of opts.Parallel.
	reps := opts.reps()
	rng := stats.NewRand(opts.Seed)
	type block struct {
		k    int
		sets []core.MulticastSet
	}
	var blocks []block
	for _, k := range KValuesSmall {
		if k > m.Nodes()-1 {
			continue
		}
		b := block{k: k, sets: make([]core.MulticastSet, reps)}
		for rep := range b.sets {
			b.sets[rep] = randomSet(m, rng, k)
		}
		blocks = append(blocks, b)
	}
	type counts struct{ traffic, maxDist []int }
	raw := make([][]counts, len(blocks))
	var points []SweepPoint
	for bi := range blocks {
		raw[bi] = make([]counts, len(variants))
		sets := blocks[bi].sets
		for vi := range variants {
			c := counts{traffic: make([]int, reps), maxDist: make([]int, reps)}
			raw[bi][vi] = c
			r := variants[vi].router
			for lo := 0; lo < reps; lo += staticChunk {
				lo, hi := lo, min(lo+staticChunk, reps)
				points = append(points, SweepPoint{
					Run: func() any {
						for rep := lo; rep < hi; rep++ {
							p := r.PlanSet(sets[rep])
							c.traffic[rep] = p.Traffic()
							c.maxDist[rep] = p.MaxDistance()
						}
						return nil
					},
					Commit: func(any) {},
				})
			}
		}
	}
	RunSweep(points, opts.Parallel)
	for bi, b := range blocks {
		for vi, vt := range variants {
			tSum, dSum := 0.0, 0.0
			for rep := 0; rep < reps; rep++ {
				tSum += additionalTraffic(raw[bi][vi].traffic[rep], b.k)
				dSum += float64(raw[bi][vi].maxDist[rep])
			}
			traffic[vt.name].Add(float64(b.k), tSum/float64(reps))
			maxDist[vt.name].Add(float64(b.k), dSum/float64(reps))
		}
	}
	return fig
}

// ExtVirtualChannelsDynamic measures latency under load for v = 1, 2, 4
// channel copies (each copy modeled as dedicated link capacity, i.e.
// physically replicated channels; see EXPERIMENTS.md).
func ExtVirtualChannelsDynamic(o DynamicOptions) *stats.Figure {
	m := topology.NewMesh2D(8, 8)
	st := mustState(m)
	fig := &stats.Figure{ID: "Ext V-dyn", Title: "Virtual-channel partitioning under load (8x8 mesh)",
		XLabel: "load (multicasts/ms/node)", YLabel: "latency (us)"}
	var schemes []namedScheme
	for _, v := range []int{1, 2, 4} {
		schemes = append(schemes, namedScheme{vName(v),
			simRoute("virtual-channel", st, routing.Options{VirtualChannels: v})})
	}
	RunSweep(loadSweep(fig, m, schemes, 10, o), o.Parallel)
	return fig
}

func vName(v int) string {
	switch v {
	case 1:
		return "v=1 (dual-path)"
	case 2:
		return "v=2"
	default:
		return "v=4"
	}
}

// ExtUnicastMix runs the Section 8.2 interaction study: a fixed message
// rate whose composition shifts from pure multicast to pure unicast, with
// unicast and multicast latencies measured separately under dual-path
// routing.
func ExtUnicastMix(o DynamicOptions) *stats.Figure {
	m := topology.NewMesh2D(8, 8)
	route := simRoute("dual-path", mustState(m), routing.Options{})
	fig := &stats.Figure{ID: "Ext U", Title: "Unicast/multicast interaction, dual-path on an 8x8 mesh",
		XLabel: "unicast fraction (%)", YLabel: "latency (us)"}
	uni := fig.AddSeries("unicast latency")
	mc := fig.AddSeries("multicast latency")
	all := fig.AddSeries("overall latency")
	var points []SweepPoint
	for i, frac := range []float64{0, 0.25, 0.5, 0.75, 0.9} {
		frac := frac
		seed := pointSeed(o, fig.ID, "mix", i)
		points = append(points, SweepPoint{
			Run: func() any {
				res, err := wormsim.Run(wormsim.Config{
					Topology:               m,
					Route:                  route,
					MeanInterarrivalMicros: 400,
					AvgDests:               10,
					UnicastFraction:        frac,
					Seed:                   seed,
					WarmupDeliveries:       o.Warmup,
					BatchSize:              o.BatchSize,
					MinBatches:             5,
					MaxCycles:              o.MaxCycles,
				})
				if err != nil {
					panic(err)
				}
				if res.Deadlocked || res.Deliveries == 0 {
					return nil
				}
				return res
			},
			Commit: func(v any) {
				if v == nil {
					return
				}
				res := v.(wormsim.Result)
				x := frac * 100
				all.Add(x, res.AvgLatencyMicros)
				if frac > 0 && res.AvgUnicastLatencyMicros > 0 {
					uni.Add(x, res.AvgUnicastLatencyMicros)
				}
				if res.AvgMulticastLatencyMicros > 0 {
					mc.Add(x, res.AvgMulticastLatencyMicros)
				}
			},
		})
	}
	RunSweep(points, o.Parallel)
	return fig
}

// ExtAdaptive compares deterministic dual-path routing against the
// congestion-adaptive variant (Section 8.2: adaptive routing with
// deadlock freedom preserved by the label-monotone window) across loads.
func ExtAdaptive(o DynamicOptions) *stats.Figure {
	m := topology.NewMesh2D(8, 8)
	st := mustState(m)
	fig := &stats.Figure{ID: "Ext A", Title: "Adaptive vs deterministic dual-path (8x8 mesh)",
		XLabel: "load (multicasts/ms/node)", YLabel: "latency (us)"}
	det := fig.AddSeries("deterministic")
	ada := fig.AddSeries("adaptive")
	detRoute := simRoute("dual-path", st, routing.Options{})
	adaRoute := wormsim.LiveRouteFuncOf(
		mustRouter("adaptive-dual-path", st, routing.Options{}).(routing.LiveRouter))
	var points []SweepPoint
	for i, inter := range o.loads() {
		inter := inter
		detSeed := pointSeed(o, fig.ID, "deterministic", i)
		points = append(points, seriesPoint(det, loadAxis(inter), func() (float64, bool) {
			return dynamicPoint(m, detRoute, inter, 10, detSeed, o)
		}))
		adaSeed := pointSeed(o, fig.ID, "adaptive", i)
		points = append(points, seriesPoint(ada, loadAxis(inter), func() (float64, bool) {
			res, err := wormsim.Run(wormsim.Config{
				Topology:               m,
				LiveRoute:              adaRoute,
				MeanInterarrivalMicros: inter,
				AvgDests:               10,
				Seed:                   adaSeed,
				WarmupDeliveries:       o.Warmup,
				BatchSize:              o.BatchSize,
				MinBatches:             5,
				MaxCycles:              o.MaxCycles,
			})
			if err != nil {
				panic(err)
			}
			if res.Deadlocked || res.Deliveries == 0 {
				return 0, false
			}
			return res.AvgLatencyMicros, true
		}))
	}
	RunSweep(points, o.Parallel)
	return fig
}

// ExtDualPath3D exercises dual-path routing on a 3D mesh (the Section
// 4.3 topology) against the multi-unicast baseline.
func ExtDualPath3D(opts Options) *stats.Figure {
	m := topology.NewMesh3D(4, 4, 4)
	st := mustState(m)
	dual := mustRouter("dual-path", st, routing.Options{})
	fixed := mustRouter("fixed-path", st, routing.Options{})
	fig := &stats.Figure{ID: "Ext 3D", Title: "Dual-path routing on a 4x4x4 mesh",
		XLabel: "destinations", YLabel: "additional traffic"}
	staticSweep(fig, m, KValuesSmall, opts, map[string]staticAlgo{
		"one-to-one": func(_ *heuristics.Workspace, k core.MulticastSet) int { return heuristics.MultiUnicastTraffic(m, k) },
		"dual-path":  func(_ *heuristics.Workspace, k core.MulticastSet) int { return dual.PlanSet(k).Traffic() },
		"fixed-path": func(_ *heuristics.Workspace, k core.MulticastSet) int { return fixed.PlanSet(k).Traffic() },
	}, []string{"one-to-one", "dual-path", "fixed-path"})
	return fig
}
