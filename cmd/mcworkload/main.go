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
//	mcworkload -replay s.trace          # parse a trace, print its provenance and shape
//	mcworkload -simcheck                # run wormsim invariant checks throughout
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"multicastnet/internal/cli"
	"multicastnet/internal/experiments"
	"multicastnet/internal/stats"
	"multicastnet/internal/workload"
)

func main() {
	flags := cli.Register(cli.Out | cli.Quick | cli.Seed | cli.Parallel | cli.CSV | cli.SimCheck | cli.Profile)
	record := flag.String("record", "", "record the named model's stream to -o instead of running the study")
	recordOut := flag.String("o", "", "trace output path for -record (default stdout)")
	replay := flag.String("replay", "", "print a summary of a trace file and exit")
	flags.Run(func() error {
		opts := experiments.WorkloadDefaults()
		if flags.Quick {
			opts = experiments.WorkloadQuick()
		}
		opts.Seed = flags.Seed
		opts.Parallel = flags.Parallel
		opts.Check = flags.SimCheck

		if *record != "" {
			return recordTrace(*record, *recordOut, opts)
		}
		if *replay != "" {
			return replayTrace(*replay)
		}

		res := experiments.WorkloadStudy(opts)
		figs := append([]*stats.Figure{}, res.SchemeFigs...)
		figs = append(figs, res.PackerThroughput, res.PackerP99)
		if err := flags.WriteFigures(figs...); err != nil || flags.CSV {
			return err
		}
		return flags.WriteText("workload_study.txt", func(w io.Writer) error { return writeSummary(w, opts, res) })
	})
}

// recordTrace writes the named model's stream over the study's first
// topology as a replayable trace file.
func recordTrace(model, path string, opts experiments.WorkloadOptions) error {
	tr, err := experiments.RecordWorkload(model, opts)
	if err != nil {
		return err
	}
	if path == "" {
		return workload.WriteTrace(os.Stdout, tr)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := workload.WriteTrace(f, tr); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("recorded %d requests (%s on %s) to %s\n", len(tr.Reqs), model, tr.Topo, path)
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
// participates in the byte-identity check (make check-results).
func writeSummary(f io.Writer, opts experiments.WorkloadOptions, res experiments.WorkloadStudyResult) error {
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
	return nil
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
