package main

import (
	"fmt"

	"multicastnet/internal/core"
	"multicastnet/internal/experiments"
	"multicastnet/internal/heuristics"
	"multicastnet/internal/labeling"
	"multicastnet/internal/stats"
	"multicastnet/internal/topology"
)

// The static workload is the paper's static study (Figs 7.1-7.5): random
// multicast sets are drawn up front exactly as experiments draws them, and
// every figure's algorithms route them through one heuristics.Workspace.
// Only the heuristic kernels work here; sched, wormsim and routing do not.

// fig75Ks is the destination sweep of Fig 7.5 on the 16x16 mesh.
var fig75Ks = []int{1, 2, 5, 10, 20, 40, 60, 80, 100, 140, 180, 220}

// staticBench sizes the static workload.
type staticBench struct {
	reps int // random sets per destination count
}

// setBlock is the sets of one destination count k.
type setBlock struct {
	k     int
	first int // index of the block's first set among all sets drawn
	sets  []core.MulticastSet
}

// staticAlgo is one curve of a figure.
type staticAlgo struct {
	name    string // the figure's series name
	span    string
	traffic func(ws *heuristics.Workspace, k core.MulticastSet) int
	// alloc runs the allocating form of the kernel and validates its
	// routing pattern, returning its traffic; nil for the baselines.
	alloc func(k core.MulticastSet) (int, error)
}

// staticFigure is one of the Fig 7.1-7.5 sweeps.
type staticFigure struct {
	ref    func(experiments.Options) *stats.Figure
	blocks []setBlock
	algos  []staticAlgo
}

type staticInput struct {
	tr   *tracer
	figs []staticFigure
	sets int
}

func (b staticBench) setup(tr *tracer, seed uint64) (phase, error) {
	s := tr.begin(spanTopologyBuild, -1)
	m32, h10, m16 := topology.NewMesh2D(32, 32), topology.NewHypercube(10), topology.NewMesh2D(16, 16)
	tr.end(s)
	s = tr.begin(spanLabelingBuild, -1)
	c32, err := labeling.MeshHamiltonCycle(m32)
	if err != nil {
		return nil, err
	}
	c10, err := labeling.CubeHamiltonCycle(h10)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	s = tr.begin(spanRecord, -1)
	in := &staticInput{tr: tr}
	b32 := in.draw(m32, experiments.KValuesMesh1024, b.reps, seed)
	b10 := in.draw(h10, experiments.KValuesMesh1024, b.reps, seed)
	b16 := in.draw(m16, fig75Ks, b.reps, seed)
	tr.end(s)

	in.figs = []staticFigure{
		{experiments.Fig71SortedMPMesh, b32, []staticAlgo{oneToOne(m32), broadcast(m32), sortedMP(m32, c32)}},
		{experiments.Fig72SortedMPCube, b10, []staticAlgo{oneToOne(h10), broadcast(h10), sortedMP(h10, c10)}},
		{experiments.Fig73GreedySTMesh, b32, []staticAlgo{oneToOne(m32), broadcast(m32), greedyST(m32)}},
		{experiments.Fig74GreedySTCube, b10, []staticAlgo{lenAlgo(h10), greedyST(h10)}},
		{experiments.Fig75MTMesh, b16, []staticAlgo{oneToOne(m16), broadcast(m16), xFirst(m16), dividedGreedy(m16)}},
	}
	return in, nil
}

// draw draws reps sets per destination count from one stream seeded with
// seed, skipping counts the topology cannot hold, as experiments does.
func (in *staticInput) draw(t topology.Topology, ks []int, reps int, seed uint64) []setBlock {
	rng := stats.NewRand(seed)
	var blocks []setBlock
	for _, k := range ks {
		if k > t.Nodes()-1 {
			continue
		}
		b := setBlock{k: k, first: in.sets, sets: make([]core.MulticastSet, reps)}
		for rep := range b.sets {
			src := topology.NodeID(rng.Intn(t.Nodes()))
			raw := rng.Sample(t.Nodes(), k, int(src))
			dests := make([]topology.NodeID, k)
			for i, v := range raw {
				dests[i] = topology.NodeID(v)
			}
			b.sets[rep] = core.MustMulticastSet(t, src, dests)
		}
		in.sets += reps
		blocks = append(blocks, b)
	}
	return blocks
}

// run computes every figure's mean additional traffic per algorithm and
// destination count; the result is indexed [figure][algorithm][block].
func (in *staticInput) run() (output, error) {
	ws := heuristics.NewWorkspace()
	means := make([][][]float64, len(in.figs))
	out := output{result: means, counters: map[string]float64{"heuristics.sets": float64(in.sets)},
		outcome: map[string]float64{}}
	sum, n := 0.0, 0
	for fi, f := range in.figs {
		means[fi] = make([][]float64, len(f.algos))
		for ai, a := range f.algos {
			row := make([]float64, len(f.blocks))
			for bi, b := range f.blocks {
				total := 0.0
				for si, set := range b.sets {
					s := in.tr.begin(a.span, int64(b.first+si))
					traffic := a.traffic(ws, set)
					in.tr.end(s)
					total += float64(traffic - b.k)
				}
				row[bi] = total / float64(len(b.sets))
				sum += row[bi]
				n++
				out.attempted += len(b.sets)
			}
			means[fi][ai] = row
		}
	}
	out.outcome["additional_traffic"] = sum / float64(n)
	return out, nil
}

// check requires every mean to equal experiments' figure at the same seed
// and reps, and the first set of every block to pass validation through
// the allocating kernels with the workspace kernels' traffic.
func (b staticBench) check(seed uint64, first output) (int, int, error) {
	ph, err := b.setup(nil, seed)
	if err != nil {
		return 0, 0, err
	}
	means := first.result.([][][]float64)
	ws := heuristics.NewWorkspace()
	checked, failed := 0, 0
	var firstErr error
	fail := func(err error) {
		failed++
		if firstErr == nil {
			firstErr = err
		}
	}
	for fi, f := range ph.(*staticInput).figs {
		fig := f.ref(experiments.Options{Reps: b.reps, Seed: seed, Parallel: 1})
		for ai, a := range f.algos {
			series := fig.Get(a.name)
			for bi, blk := range f.blocks {
				checked++
				var want float64
				ok := series != nil
				if ok {
					want, ok = series.At(float64(blk.k))
				}
				if got := means[fi][ai][bi]; !ok || got != want {
					fail(fmt.Errorf("%s %s k=%d: mean %v, experiments %v", fig.ID, a.name, blk.k, got, want))
				}
				if a.alloc == nil {
					continue
				}
				checked++
				set := blk.sets[0]
				links, err := a.alloc(set)
				if want := a.traffic(ws, set); err == nil && links != want {
					err = fmt.Errorf("allocating kernel sends %d messages, workspace kernel %d", links, want)
				}
				if err != nil {
					fail(fmt.Errorf("%s %s k=%d: %w", fig.ID, a.name, blk.k, err))
				}
			}
		}
	}
	return checked, failed, firstErr
}

func oneToOne(t topology.Topology) staticAlgo {
	return staticAlgo{name: "one-to-one", span: spanBaseline,
		traffic: func(_ *heuristics.Workspace, k core.MulticastSet) int { return heuristics.MultiUnicastTraffic(t, k) }}
}

func broadcast(t topology.Topology) staticAlgo {
	return staticAlgo{name: "broadcast", span: spanBaseline,
		traffic: func(_ *heuristics.Workspace, k core.MulticastSet) int { return heuristics.BroadcastTraffic(t) }}
}

func sortedMP(t topology.Topology, c *labeling.HamiltonCycle) staticAlgo {
	return staticAlgo{name: "sorted MP", span: spanSortedMP,
		traffic: func(ws *heuristics.Workspace, k core.MulticastSet) int { return ws.SortedMP(t, c, k) },
		alloc: func(k core.MulticastSet) (int, error) {
			p := heuristics.SortedMP(t, c, k)
			return p.Traffic(), p.Validate(t, k, false)
		}}
}

// validated returns an STResult's traffic with its validation error.
func validated(r *heuristics.STResult, t topology.Topology, k core.MulticastSet) (int, error) {
	return r.Links, r.Validate(t, k)
}

func greedyST(t heuristics.RegionTopology) staticAlgo {
	return staticAlgo{name: "greedy ST", span: spanGreedyST,
		traffic: func(ws *heuristics.Workspace, k core.MulticastSet) int { return ws.GreedySTCarried(t, k) },
		alloc: func(k core.MulticastSet) (int, error) {
			return validated(heuristics.GreedySTCarried(t, k), t, k)
		}}
}

func lenAlgo(h *topology.Hypercube) staticAlgo {
	return staticAlgo{name: "LEN", span: spanLEN,
		traffic: func(ws *heuristics.Workspace, k core.MulticastSet) int { return ws.LEN(h, k) },
		alloc:   func(k core.MulticastSet) (int, error) { return validated(heuristics.LEN(h, k), h, k) }}
}

func xFirst(m *topology.Mesh2D) staticAlgo {
	return staticAlgo{name: "X-first", span: spanMT,
		traffic: func(ws *heuristics.Workspace, k core.MulticastSet) int { return ws.XFirstMT(m, k) },
		alloc:   func(k core.MulticastSet) (int, error) { return validated(heuristics.XFirstMT(m, k), m, k) }}
}

func dividedGreedy(m *topology.Mesh2D) staticAlgo {
	return staticAlgo{name: "divided greedy", span: spanMT,
		traffic: func(ws *heuristics.Workspace, k core.MulticastSet) int { return ws.DividedGreedyMT(m, k) },
		alloc:   func(k core.MulticastSet) (int, error) { return validated(heuristics.DividedGreedyMT(m, k), m, k) }}
}
