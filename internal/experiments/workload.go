package experiments

import (
	"fmt"
	"runtime"
	"sort"

	"multicastnet/internal/routing"
	"multicastnet/internal/sched"
	"multicastnet/internal/stats"
	"multicastnet/internal/topology"
	"multicastnet/internal/workload"
	"multicastnet/internal/wormsim"
)

// The workload study: how scheme and packer rankings shift when the
// paper's uniform-random fixed-rate traffic is replaced by realistic
// models (internal/workload). Two sweeps share one deterministic,
// parallel harness:
//
//   - scheme sweep: every routing scheme carries the identical request
//     stream of every workload model on every topology, measured to
//     stream-drain in wormsim (mean completion latency per model);
//   - packer sweep: the scheduling service's fifo and sched policies
//     serve the identical stream of every model on the first topology
//     (delivered throughput and p99 completion latency per model).
//
// Every figure and point is a pure function of the seed — byte-identical
// at any -parallel value.

// WorkloadModelNames are the study's workload profiles: the five
// destination models at Poisson arrivals plus "bursty", the Zipf pool
// under ON/OFF arrivals.
func WorkloadModelNames() []string {
	return append(workload.Models(), "bursty")
}

// workloadStudySpec maps a study model name to its workload spec.
// "bursty" is zipf popularity with ON/OFF arrivals; every other name is
// the same-named destination model with Poisson arrivals.
func workloadStudySpec(model string, requests, groups, avgDests int,
	meanGap, zipfS float64) (workload.Spec, error) {
	sp := workload.Spec{
		Arrivals: workload.ArrivalsPoisson,
		Requests: requests,
		Groups:   groups,
		AvgDests: avgDests,
		MeanGap:  meanGap,
		ZipfS:    zipfS,
	}
	switch model {
	case "bursty":
		sp.Model = workload.ModelZipf
		sp.Arrivals = workload.ArrivalsOnOff
	case workload.ModelUniform, workload.ModelZipf, workload.ModelHotspot,
		workload.ModelTranspose, workload.ModelCollective:
		sp.Model = model
	default:
		return sp, fmt.Errorf("experiments: unknown workload model %q (valid: %v)",
			model, WorkloadModelNames())
	}
	return sp, nil
}

// WorkloadTopo is one topology of the scheme sweep. Name is the stable
// figure/file key (the committed study and its -quick smoke share it
// even though the quick topologies are smaller).
type WorkloadTopo struct {
	Name    string
	Build   func() topology.Topology
	Schemes []string
}

// WorkloadOptions configure the workload study.
type WorkloadOptions struct {
	Seed uint64
	// Parallel is the sweep worker count (also the packer's planner
	// workers). Outputs are byte-identical for every value.
	Parallel int

	Requests  int     // requests per stream
	Groups    int     // group pool size
	AvgDests  int     // mean destination count
	Flits     int     // message length
	ZipfS     float64 // zipf/bursty popularity exponent
	MeanGap   float64 // global mean inter-arrival gap, cycles
	Budget    int32   // sched policy congestion+dilation budget
	Window    int64   // packer admission window, cycles
	MaxCycles int64

	// Models overrides the workload profile list; nil selects
	// WorkloadModelNames().
	Models []string
	// Topos overrides the scheme-sweep topologies; nil selects the
	// committed 64x64 mesh and 4096-node hypercube. The packer sweep
	// runs on Topos[0].
	Topos []WorkloadTopo
}

func (o WorkloadOptions) models() []string {
	if o.Models != nil {
		return o.Models
	}
	return WorkloadModelNames()
}

func (o WorkloadOptions) topos() []WorkloadTopo {
	if o.Topos != nil {
		return o.Topos
	}
	schemes := []string{"dual-path", "multi-path", "fixed-path"}
	return []WorkloadTopo{
		{Name: "mesh", Build: func() topology.Topology { return topology.NewMesh2D(64, 64) }, Schemes: schemes},
		{Name: "cube", Build: func() topology.Topology { return topology.NewHypercube(12) }, Schemes: schemes},
	}
}

// WorkloadDefaults are the committed-figure settings: 4096-node
// topologies under a high offered load (mean gap 1 cycle across the
// machine) where scheme and packer rankings visibly shift between
// workload models.
func WorkloadDefaults() WorkloadOptions {
	return WorkloadOptions{
		Seed:      1990,
		Requests:  1500,
		Groups:    256,
		AvgDests:  4,
		Flits:     32,
		ZipfS:     1.2,
		MeanGap:   1,
		Budget:    220,
		Window:    256,
		MaxCycles: 4_000_000,
	}
}

// WorkloadQuick shrinks streams and topologies for smoke runs; figure
// and file keys are unchanged.
func WorkloadQuick() WorkloadOptions {
	o := WorkloadDefaults()
	o.Requests = 400
	o.Groups = 64
	o.MeanGap = 6
	o.Budget = 60 // the 16x16 mesh's dilation is ~4x below the 64x64's
	o.MaxCycles = 1_500_000
	schemes := []string{"dual-path", "multi-path", "fixed-path"}
	o.Topos = []WorkloadTopo{
		{Name: "mesh", Build: func() topology.Topology { return topology.NewMesh2D(16, 16) }, Schemes: schemes},
		{Name: "cube", Build: func() topology.Topology { return topology.NewHypercube(8) }, Schemes: schemes},
	}
	return o
}

// WorkloadPoint is one (topology, model, scheme) run of the scheme
// sweep.
type WorkloadPoint struct {
	Topo                string
	Model               string
	Scheme              string
	Requests            int
	Delivered           int
	Cycles              int64
	AvgLatencyMicros    float64
	AvgCompletionMicros float64
	ThroughputPerMs     float64
	Deadlocked          bool
}

// WorkloadPackerPoint is one (model, policy) run of the packer sweep.
type WorkloadPackerPoint struct {
	Model  string
	Policy string
	sched.ServeResult
}

// WorkloadStudyResult is the full study output; every field except
// GOMAXPROCS is deterministic.
type WorkloadStudyResult struct {
	GOMAXPROCS int
	Models     []string
	// SchemeFigs has one figure per topology: x = 1-based model index
	// (the study table carries the legend), one series per scheme,
	// y = mean completion latency in microseconds.
	SchemeFigs []*stats.Figure
	// Packer figures: x = model index, series fifo/sched.
	PackerThroughput *stats.Figure
	PackerP99        *stats.Figure
	Points           []WorkloadPoint
	PackerPoints     []WorkloadPackerPoint
}

// workloadStream builds the model's stream over topo. The seed is
// derived from the topology key only — every scheme and policy carries
// the identical paired request stream.
func workloadStream(topo topology.Topology, model, topoKey string, o WorkloadOptions) *workload.Stream {
	spec, err := workloadStudySpec(model, o.Requests, o.Groups, o.AvgDests, o.MeanGap, o.ZipfS)
	if err != nil {
		panic(err)
	}
	src, err := workload.New(topo, spec, stats.DeriveSeed(o.Seed, "workload/"+topoKey+"/"+model))
	if err != nil {
		panic(err)
	}
	return src
}

// workloadSimRun carries one model's stream under one scheme to drain.
func workloadSimRun(topo topology.Topology, st *routing.State, scheme, model, topoKey string,
	o WorkloadOptions) wormsim.Result {
	route := wormsim.FlatRouteFuncOf(routing.Flat(mustRouter(scheme, st, routing.Options{}),
		routing.NewPlanCache(0)))
	res, err := wormsim.Run(wormsim.Config{
		Topology:     topo,
		Route:        route,
		MessageBytes: o.Flits,
		Workload:     workloadStream(topo, model, topoKey, o),
		Seed:         o.Seed, // unused by generation; kept for provenance
		BatchSize:    200,
		MinBatches:   1 << 30, // never converge early: drain the stream
		MaxCycles:    o.MaxCycles,
	})
	if err != nil {
		panic(err)
	}
	return res
}

// WorkloadStudy runs the scheme and packer sweeps over one worker pool.
func WorkloadStudy(o WorkloadOptions) WorkloadStudyResult {
	models := o.models()
	topos := o.topos()
	out := WorkloadStudyResult{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Models:     models,
		PackerThroughput: &stats.Figure{ID: "Workload packer throughput",
			Title:  "Delivered throughput per workload model (fifo vs congestion-aware packing)",
			XLabel: "workload model index", YLabel: "completed multicasts per 1000 cycles"},
		PackerP99: &stats.Figure{ID: "Workload packer p99",
			Title:  "P99 request-to-completion latency per workload model (queueing included)",
			XLabel: "workload model index", YLabel: "p99 completion latency (cycles)"},
	}

	var points []SweepPoint
	var pst *routing.State // the first topology's, reused by the packer sweep
	for _, wt := range topos {
		wt := wt
		topo := wt.Build()
		st := mustState(topo)
		if pst == nil {
			pst = st
		}
		fig := &stats.Figure{ID: "Workload scheme " + wt.Name,
			Title: fmt.Sprintf("Mean multicast completion latency per workload model on the %s",
				topo.Name()),
			XLabel: "workload model index", YLabel: "mean completion latency (us)"}
		out.SchemeFigs = append(out.SchemeFigs, fig)
		for _, scheme := range wt.Schemes {
			scheme := scheme
			series := fig.AddSeries(scheme)
			for mi, model := range models {
				mi, model := mi, model
				slot := len(out.Points)
				out.Points = append(out.Points, WorkloadPoint{})
				points = append(points, SweepPoint{
					Run: func() any { return workloadSimRun(topo, st, scheme, model, wt.Name, o) },
					Commit: func(v any) {
						res := v.(wormsim.Result)
						out.Points[slot] = WorkloadPoint{
							Topo: wt.Name, Model: model, Scheme: scheme,
							Requests: o.Requests, Delivered: res.Delivered,
							Cycles:              res.Cycles,
							AvgLatencyMicros:    res.AvgLatencyMicros,
							AvgCompletionMicros: res.AvgCompletionMicros,
							ThroughputPerMs:     res.ThroughputPerMs,
							Deadlocked:          res.Deadlocked,
						}
						series.Add(float64(mi+1), res.AvgCompletionMicros)
					},
				})
			}
		}
	}

	// Packer sweep on the first topology.
	pt, ptopo := topos[0], pst.Topology()
	for _, policy := range []servePolicy{{"fifo", 0}, {"sched", o.Budget}} {
		policy := policy
		ts := out.PackerThroughput.AddSeries(policy.name)
		ls := out.PackerP99.AddSeries(policy.name)
		for mi, model := range models {
			mi, model := mi, model
			slot := len(out.PackerPoints)
			out.PackerPoints = append(out.PackerPoints, WorkloadPackerPoint{})
			points = append(points, SweepPoint{
				Run: func() any {
					return serve(pst, policy.budget, o.Parallel, o.Window, o.Flits, o.MaxCycles,
						workloadStream(ptopo, model, pt.Name, o))
				},
				Commit: func(v any) {
					res := v.(sched.ServeResult)
					out.PackerPoints[slot] = WorkloadPackerPoint{Model: model, Policy: policy.name, ServeResult: res}
					ts.Add(float64(mi+1), res.ThroughputPerKCycle)
					ls.Add(float64(mi+1), res.P99Latency)
				},
			})
		}
	}

	RunSweep(points, o.Parallel)
	return out
}

// RecordWorkload records the named model's stream over the study's
// first topology into a replayable trace.
func RecordWorkload(model string, o WorkloadOptions) (*workload.Trace, error) {
	spec, err := workloadStudySpec(model, o.Requests, o.Groups, o.AvgDests, o.MeanGap, o.ZipfS)
	if err != nil {
		return nil, err
	}
	wt := o.topos()[0]
	return workload.Record(wt.Build(), spec,
		stats.DeriveSeed(o.Seed, "workload/"+wt.Name+"/"+model))
}

// SchemeRanking returns the topology's schemes ordered by ascending
// mean completion latency under the given model (ties broken by name).
func (r *WorkloadStudyResult) SchemeRanking(topoKey, model string) []string {
	type entry struct {
		scheme  string
		latency float64
	}
	var es []entry
	for _, p := range r.Points {
		if p.Topo == topoKey && p.Model == model {
			es = append(es, entry{p.Scheme, p.AvgCompletionMicros})
		}
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i].latency != es[j].latency {
			return es[i].latency < es[j].latency
		}
		return es[i].scheme < es[j].scheme
	})
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = e.scheme
	}
	return out
}

// PackerComparison returns the fifo and sched points for a model, in
// that order (zero points if the model was not run).
func (r *WorkloadStudyResult) PackerComparison(model string) (fifo, sched WorkloadPackerPoint) {
	for _, p := range r.PackerPoints {
		if p.Model != model {
			continue
		}
		switch p.Policy {
		case "fifo":
			fifo = p
		case "sched":
			sched = p
		}
	}
	return fifo, sched
}
