// Command mcserve runs the serving study: the window-batched multicast
// scheduling service (internal/sched) against a naive FIFO baseline on
// the 64x64 mesh under dual-path routing. A Poisson request stream drawn
// from a hot group pool is batched into admission windows, planned
// through a shared plan cache, congestion-packed, injected into wormsim,
// and measured to completion. It writes delivered-throughput and p99
// completion-latency figures versus offered load and versus admission
// window size, plus a per-point table (serve_study.txt).
//
// Every committed output is byte-identical at any -parallel (sweep and
// planner workers) value.
//
// Usage:
//
//	mcserve -out results            # write serve_* figures (txt+csv) and serve_study.txt
//	mcserve -quick                  # reduced request and point budgets
//	mcserve -parallel 4             # worker count (outputs unchanged)
//	mcserve -csv                    # emit CSV on stdout instead of files
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
)

func main() {
	out := flag.String("out", "results", "output directory")
	quick := flag.Bool("quick", false, "reduced request and point budgets")
	seed := flag.Uint64("seed", 1990, "study seed")
	csv := flag.Bool("csv", false, "emit CSV on stdout instead of writing files")
	parallel := flag.Int("parallel", 0, "sweep and planner workers (0 = GOMAXPROCS, 1 = sequential; outputs are byte-identical)")
	workloadModel := flag.String("workload", "", "workload profile replacing the built-in group pool ("+strings.Join(experiments.WorkloadModelNames(), ", ")+"; empty = built-in pool)")
	prof := profiling.AddFlags()
	flag.Parse()
	stopProf, err := prof.Start()
	if err != nil {
		fatal(err)
	}
	defer stopProf()

	opts := experiments.ServeDefaults()
	if *quick {
		opts = experiments.ServeQuick()
	}
	opts.Seed = *seed
	opts.Parallel = *parallel
	if *workloadModel != "" {
		valid := false
		for _, m := range experiments.WorkloadModelNames() {
			if m == *workloadModel {
				valid = true
			}
		}
		if !valid {
			fatal(fmt.Errorf("unknown -workload %q (valid: %s)",
				*workloadModel, strings.Join(experiments.WorkloadModelNames(), ", ")))
		}
		opts.Workload = *workloadModel
	}

	res := experiments.ServeStudy(opts)

	figs := []*stats.Figure{res.Throughput, res.P99, res.WindowThroughput, res.WindowP99}
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
	fmt.Printf("wrote serve_study.txt (gomaxprocs=%d)\n", res.GOMAXPROCS)
}

// writeSummary records every point of the sweep. All fields are
// deterministic, so the file participates in the byte-identity check
// (make check-serve).
func writeSummary(dir string, opts experiments.ServeOptions, res experiments.ServeStudyResult) {
	f, err := os.Create(filepath.Join(dir, "serve_study.txt"))
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	fmt.Fprintf(f, "Serving study: window-batched multicast scheduling vs naive FIFO\n")
	if opts.Workload != "" {
		fmt.Fprintf(f, "64x64 mesh, dual-path routing, %d requests per point from the %q\n", opts.Requests, opts.Workload)
		fmt.Fprintf(f, "workload profile (%d groups), %d-flit messages, sched budget %d.\n\n", opts.Groups, opts.Flits, opts.Budget)
	} else {
		fmt.Fprintf(f, "64x64 mesh, dual-path routing, %d requests per point from a pool of\n", opts.Requests)
		fmt.Fprintf(f, "%d multicast groups, %d-flit messages, sched budget %d.\n\n", opts.Groups, opts.Flits, opts.Budget)
	}
	fmt.Fprintf(f, "Latencies are full request-to-completion cycles, queueing included.\n")
	fmt.Fprintf(f, "Deterministic at any -parallel value.\n\n")
	fmt.Fprintf(f, "%-6s %9s %7s %9s %9s %9s %7s %8s %7s %6s %6s %5s\n",
		"policy", "interarr", "window", "thr/kcyc", "p50", "p99", "maxIF", "defer", "force", "peakL", "dil", "hit")
	for _, p := range res.Points {
		fmt.Fprintf(f, "%-6s %9.2f %7d %9.2f %9.0f %9.0f %7d %8d %7d %6d %6d %5.2f\n",
			p.Policy, p.MeanInterarrival, p.WindowCycles, p.ThroughputPerKCycle,
			p.P50Latency, p.P99Latency, p.MaxInFlight, p.Deferrals, p.ForceAdmits,
			p.PeakLoad, p.PeakDilation, p.CacheHitRate)
	}
	// The load sweep occupies the first 2*len(Loads) points.
	writeHeadline(f, res.Points[:2*len(opts.Loads)])
}

// writeHeadline compares the two policies at the highest offered load of
// the load sweep — the regime with thousands of requests in flight.
func writeHeadline(w io.Writer, points []experiments.ServePoint) {
	var fifo, sched *experiments.ServePoint
	for i := range points {
		p := &points[i]
		switch p.Policy {
		case "fifo":
			if fifo == nil || p.MeanInterarrival < fifo.MeanInterarrival {
				fifo = p
			}
		case "sched":
			if sched == nil || p.MeanInterarrival < sched.MeanInterarrival {
				sched = p
			}
		}
	}
	if fifo == nil || sched == nil {
		return
	}
	fmt.Fprintf(w, "\nAt the highest offered load (mean inter-arrival %.2f cycles,\n", fifo.MeanInterarrival)
	fmt.Fprintf(w, "%d requests in flight at peak) congestion-aware packing delivers\n", sched.MaxInFlight)
	fmt.Fprintf(w, "%.2f completed multicasts per 1000 cycles vs FIFO's %.2f (%+.1f%%)\n",
		sched.ThroughputPerKCycle, fifo.ThroughputPerKCycle,
		100*(sched.ThroughputPerKCycle/fifo.ThroughputPerKCycle-1))
	fmt.Fprintf(w, "at p99 completion latency %.0f vs %.0f cycles (%+.1f%%).\n",
		sched.P99Latency, fifo.P99Latency, 100*(sched.P99Latency/fifo.P99Latency-1))
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
	fmt.Fprintln(os.Stderr, "mcserve:", err)
	os.Exit(1)
}
