// Command mcworkload runs the workload study: how routing-scheme and
// window-packer rankings shift when the paper's uniform fixed-rate
// traffic is replaced by realistic workload models (internal/workload).
// Six profiles — uniform, zipf, hotspot, transpose, collective, and
// bursty (zipf popularity under ON/OFF arrivals) — each drive the
// identical request stream through every routing scheme on the 64x64
// mesh and the 4096-node hypercube, and through the fifo and
// congestion-aware packers on the mesh.
//
// Every committed output is byte-identical at any -parallel (sweep and
// planner workers) value.
//
// Usage:
//
//	mcworkload -out results             # write workload_* figures (txt+csv) and workload_study.txt
//	mcworkload -quick                   # reduced streams on small topologies
//	mcworkload -parallel 4              # worker count (outputs unchanged)
//	mcworkload -record zipf -o s.trace  # record one model's stream to a trace file
//	mcworkload -replay s.trace          # re-run the scheme sweep point from a trace
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"multicastnet/internal/experiments"
	"multicastnet/internal/profiling"
	"multicastnet/internal/stats"
	"multicastnet/internal/workload"
)

func main() {
	out := flag.String("out", "results", "output directory")
	quick := flag.Bool("quick", false, "reduced streams on small topologies")
	seed := flag.Uint64("seed", 1990, "study seed")
	csv := flag.Bool("csv", false, "emit CSV on stdout instead of writing files")
	parallel := flag.Int("parallel", 0, "sweep and planner workers (0 = GOMAXPROCS, 1 = sequential; outputs are byte-identical)")
	record := flag.String("record", "", "record the named model's stream to -o instead of running the study")
	recordOut := flag.String("o", "", "trace output path for -record (default stdout)")
	replay := flag.String("replay", "", "print a summary of a trace file and exit")
	prof := profiling.AddFlags()
	flag.Parse()
	stopProf, err := prof.Start()
	if err != nil {
		fatal(err)
	}
	defer stopProf()

	opts := experiments.WorkloadDefaults()
	if *quick {
		opts = experiments.WorkloadQuick()
	}
	opts.Seed = *seed
	opts.Parallel = *parallel

	if *record != "" {
		if err := recordTrace(*record, *recordOut, opts); err != nil {
			fatal(err)
		}
		return
	}
	if *replay != "" {
		if err := replayTrace(*replay); err != nil {
			fatal(err)
		}
		return
	}

	res := experiments.WorkloadStudy(opts)

	figs := append([]*stats.Figure{}, res.SchemeFigs...)
	figs = append(figs, res.PackerThroughput, res.PackerP99)
	if *csv {
		for _, fig := range figs {
			if err := fig.WriteCSV(os.Stdout); err != nil {
				fatal(err)
			}
		}
		return
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	for _, fig := range figs {
		base := strings.ReplaceAll(strings.ToLower(fig.ID), " ", "_")
		writeFigure(*out, base+".txt", fig, false)
		writeFigure(*out, base+".csv", fig, true)
		fmt.Printf("wrote %s\n", base)
	}
	writeSummary(*out, opts, res)
	fmt.Printf("wrote workload_study.txt (gomaxprocs=%d)\n", res.GOMAXPROCS)
}

// recordTrace writes the named model's stream over the study's first
// topology as a replayable trace file.
func recordTrace(model, path string, opts experiments.WorkloadOptions) error {
	tr, err := experiments.RecordWorkload(model, opts)
	if err != nil {
		return err
	}
	w := io.Writer(os.Stdout)
	if path != "" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := workload.WriteTrace(w, tr); err != nil {
		return err
	}
	if path != "" {
		fmt.Printf("recorded %d requests (%s on %s) to %s\n",
			len(tr.Reqs), model, tr.Topo, path)
	}
	return nil
}

// replayTrace parses a trace and prints its provenance and shape — the
// proof that the file round-trips.
func replayTrace(path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	tr, err := workload.ParseTrace(b)
	if err != nil {
		return err
	}
	dests, last := 0, int64(0)
	src := tr.Source()
	n := 0
	for {
		r, ok := src.Next()
		if !ok {
			break
		}
		n++
		dests += len(r.Dests)
		last = r.At
	}
	fmt.Printf("trace: %s on %s (%d nodes), seed %d\n", tr.Spec.Model, tr.Topo, tr.Nodes, tr.Seed)
	fmt.Printf("requests: %d, destinations: %d (mean %.2f), span: %d cycles\n",
		n, dests, float64(dests)/float64(max(n, 1)), last)
	return nil
}

// writeSummary records every point of both sweeps plus the model legend
// and the ranking comparison. All fields are deterministic, so the file
// participates in the byte-identity check (make check-workload).
func writeSummary(dir string, opts experiments.WorkloadOptions, res experiments.WorkloadStudyResult) {
	f, err := os.Create(filepath.Join(dir, "workload_study.txt"))
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	fmt.Fprintf(f, "Workload study: scheme and packer rankings under realistic traffic\n")
	fmt.Fprintf(f, "%d requests per stream, %d-group pool, mean %d destinations,\n",
		opts.Requests, opts.Groups, opts.AvgDests)
	fmt.Fprintf(f, "%d-flit messages, mean inter-arrival gap %g cycles, zipf s=%g.\n",
		opts.Flits, opts.MeanGap, opts.ZipfS)
	fmt.Fprintf(f, "Each (topology, model) pair uses one pinned stream: every scheme\n")
	fmt.Fprintf(f, "and packer carries identical requests (paired comparison).\n")
	fmt.Fprintf(f, "Deterministic at any -parallel value.\n\n")

	fmt.Fprintf(f, "model index legend:\n")
	for i, m := range res.Models {
		fmt.Fprintf(f, "  %d = %s\n", i+1, m)
	}

	fmt.Fprintf(f, "\nscheme sweep (wormsim, stream run to drain):\n")
	fmt.Fprintf(f, "%-5s %-10s %-10s %9s %9s %9s %9s %9s %5s\n",
		"topo", "model", "scheme", "delivered", "cycles", "net(us)", "compl(us)", "thr/ms", "dead")
	for _, p := range res.Points {
		fmt.Fprintf(f, "%-5s %-10s %-10s %9d %9d %9.2f %9.2f %9.1f %5v\n",
			p.Topo, p.Model, p.Scheme, p.Delivered, p.Cycles,
			p.AvgLatencyMicros, p.AvgCompletionMicros, p.ThroughputPerMs, p.Deadlocked)
	}

	fmt.Fprintf(f, "\npacker sweep (sched.Serve on the %s topology, dual-path):\n", topoName(opts))
	fmt.Fprintf(f, "%-10s %-6s %9s %9s %9s %9s %7s %8s %7s %5s\n",
		"model", "policy", "thr/kcyc", "p50", "p99", "mean", "maxIF", "defer", "force", "hit")
	for _, p := range res.PackerPoints {
		fmt.Fprintf(f, "%-10s %-6s %9.2f %9.0f %9.0f %9.0f %7d %8d %7d %5.2f\n",
			p.Model, p.Policy, p.ThroughputPerKCycle, p.P50Latency, p.P99Latency,
			p.MeanLatency, p.MaxInFlight, p.Deferrals, p.ForceAdmits, p.CacheHitRate)
	}

	writeRankings(f, opts, res)
}

func topoName(opts experiments.WorkloadOptions) string {
	if opts.Topos != nil {
		return opts.Topos[0].Name
	}
	return "mesh"
}

// writeRankings spells out the study's headline: the scheme order per
// (topology, model) and whether it shifts away from the uniform
// baseline, plus the packer comparison per model.
func writeRankings(w io.Writer, opts experiments.WorkloadOptions, res experiments.WorkloadStudyResult) {
	topos := []string{"mesh", "cube"}
	if opts.Topos != nil {
		topos = topos[:0]
		for _, t := range opts.Topos {
			topos = append(topos, t.Name)
		}
	}
	fmt.Fprintf(w, "\nscheme ranking by mean completion latency (best first):\n")
	for _, topo := range topos {
		base := res.SchemeRanking(topo, "uniform")
		for _, m := range res.Models {
			r := res.SchemeRanking(topo, m)
			if len(r) == 0 {
				continue
			}
			mark := ""
			if m != "uniform" && len(base) > 0 && strings.Join(r, ",") != strings.Join(base, ",") {
				mark = "   <- differs from uniform"
			}
			fmt.Fprintf(w, "  %-5s %-10s %s%s\n", topo, m, strings.Join(r, " > "), mark)
		}
	}

	fmt.Fprintf(w, "\npacker comparison (sched vs fifo):\n")
	for _, m := range res.Models {
		fifo, schd := res.PackerComparison(m)
		if fifo.Policy == "" || schd.Policy == "" {
			continue
		}
		thr := 0.0
		if fifo.ThroughputPerKCycle > 0 {
			thr = 100 * (schd.ThroughputPerKCycle/fifo.ThroughputPerKCycle - 1)
		}
		p99 := 0.0
		if fifo.P99Latency > 0 {
			p99 = 100 * (schd.P99Latency/fifo.P99Latency - 1)
		}
		fmt.Fprintf(w, "  %-10s throughput %+6.1f%%  p99 %+6.1f%%\n", m, thr, p99)
	}
}

func writeFigure(dir, name string, fig *stats.Figure, csv bool) {
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	if csv {
		err = fig.WriteCSV(f)
	} else {
		err = fig.WriteTable(f)
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mcworkload:", err)
	os.Exit(1)
}
