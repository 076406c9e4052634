// Command mcserve runs the serving study: the window-batched multicast
// scheduling service (internal/sched) against a naive FIFO baseline on
// the 64x64 mesh under dual-path routing. A Poisson request stream from
// a workload model (by default uniform: a fixed pool of multicast groups,
// each equally likely) is batched into admission windows, planned
// through a shared plan cache, congestion-packed, injected into wormsim,
// and measured to completion. The group pool stays the same across the
// whole sweep. It writes delivered-throughput and p99 completion-latency
// figures versus offered load and versus admission window size, plus a
// per-point table (serve_study.txt).
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
//	mcserve -workload zipf          # the same sweep over another workload model
//	mcserve -simcheck               # run wormsim invariant checks throughout
package main

import (
	"flag"
	"fmt"
	"io"
	"slices"
	"strings"

	"multicastnet/internal/cli"
	"multicastnet/internal/experiments"
	"multicastnet/internal/workload"
)

func main() {
	flags := cli.Register(cli.Out | cli.Quick | cli.Seed | cli.Parallel | cli.CSV | cli.SimCheck | cli.Profile)
	models := experiments.WorkloadModelNames()
	workloadModel := flag.String("workload", workload.ModelUniform, "workload model generating the request stream ("+strings.Join(models, ", ")+")")
	flags.Run(func() error {
		opts := experiments.ServeDefaults()
		if flags.Quick {
			opts = experiments.ServeQuick()
		}
		opts.Seed = flags.Seed
		opts.Parallel = flags.Parallel
		opts.Check = flags.SimCheck
		if !slices.Contains(models, *workloadModel) {
			return fmt.Errorf("unknown -workload %q (valid: %s)", *workloadModel, strings.Join(models, ", "))
		}
		opts.Workload = *workloadModel

		res := experiments.ServeStudy(opts)
		if err := flags.WriteFigures(res.Throughput, res.P99, res.WindowThroughput, res.WindowP99); err != nil || flags.CSV {
			return err
		}
		return flags.WriteText("serve_study.txt", func(w io.Writer) error { return writeSummary(w, opts, res) })
	})
}

// writeSummary records every point of the sweep. All fields are
// deterministic, so the file participates in the byte-identity check
// (make check-results).
func writeSummary(f io.Writer, opts experiments.ServeOptions, res experiments.ServeStudyResult) error {
	fmt.Fprintf(f, "Serving study: window-batched multicast scheduling vs naive FIFO\n")
	if opts.Workload != workload.ModelUniform {
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
	return nil
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
