// Command mcscale runs the beyond-paper scale study: simulator throughput
// (simulated cycles per wall-clock second) and the heap each timed run
// allocates, on topologies far beyond the dissertation's 8x8 mesh — a
// 64x64 mesh, an 8-ary 4-cube and a 65536-node hypercube. Each
// workload's timed run is verified field-for-field against its warm-up
// run, so the study is also a large-topology determinism audit.
//
// Usage:
//
//	mcscale -out results            # write scale_study.txt
//	mcscale -quick                  # reduced cycle budgets
package main

import (
	"fmt"
	"io"
	"runtime"

	"multicastnet/internal/cli"
	"multicastnet/internal/experiments"
)

func main() {
	flags := cli.Register(cli.Out | cli.Quick | cli.Seed | cli.SimCheck | cli.Profile)
	flags.Run(func() error {
		opts := experiments.ScaleDefaults()
		if flags.Quick {
			opts = experiments.ScaleQuick()
		}
		opts.Seed = flags.Seed
		opts.Check = flags.SimCheck

		res := experiments.ScaleStudy(opts)
		return flags.WriteText("scale_study.txt", func(w io.Writer) error { return writeSummary(w, res) })
	})
}

// writeSummary records the measured throughput with the host facts it
// was measured on.
func writeSummary(f io.Writer, res experiments.ScaleResult) error {
	fmt.Fprintf(f, "Beyond-paper scale study\n")
	fmt.Fprintf(f, "gomaxprocs: %d\n", res.GOMAXPROCS)
	fmt.Fprintf(f, "cpus: %d\n", runtime.NumCPU())
	fmt.Fprintf(f, "go: %s\n\n", runtime.Version())
	fmt.Fprintf(f, "%-14s %12s %10s %14s %10s\n", "workload", "cycles", "wall_s", "cycles/sec", "alloc_mb")
	for _, p := range res.Points {
		fmt.Fprintf(f, "%-14s %12d %10.3f %14.0f %10.1f\n", p.Workload, p.Cycles, p.WallSecs, p.CyclesPerSec, p.AllocMB)
	}
	fmt.Fprintf(f, "\nEach workload ran twice, an untimed warm-up and the timed run, and\n")
	fmt.Fprintf(f, "the study aborts unless the two Results match field for field.\n")
	fmt.Fprintf(f, "alloc_mb is the heap the timed run allocated, in MiB.\n")
	return nil
}
