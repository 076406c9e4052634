// Command mcscale runs the beyond-paper scale study: simulator throughput
// (simulated cycles per wall-clock second) on topologies far beyond the
// dissertation's 8x8 mesh — a 64x64 mesh, an 8-ary 4-cube and a
// 65536-node hypercube. Each workload's timed run is verified
// field-for-field against its warm-up run, so the study is also a
// large-topology determinism audit.
//
// Usage:
//
//	mcscale -out results            # write scale_study.txt
//	mcscale -quick                  # reduced cycle budgets
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"multicastnet/internal/experiments"
	"multicastnet/internal/profiling"
)

func main() {
	out := flag.String("out", "results", "output directory")
	quick := flag.Bool("quick", false, "reduced cycle budgets")
	seed := flag.Uint64("seed", 1990, "study seed")
	simcheck := flag.Bool("simcheck", false, "run wormsim invariant checks inside every run")
	prof := profiling.AddFlags()
	flag.Parse()
	stopProf, err := prof.Start()
	if err != nil {
		fatal(err)
	}
	defer stopProf()

	opts := experiments.ScaleDefaults()
	if *quick {
		opts = experiments.ScaleQuick()
	}
	opts.Seed = *seed
	opts.Check = *simcheck

	res := experiments.ScaleStudy(opts)

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	writeSummary(*out, res)
	fmt.Printf("wrote scale_study.txt (gomaxprocs=%d)\n", res.GOMAXPROCS)
}

// writeSummary records the measured throughput with the host facts it
// was measured on.
func writeSummary(dir string, res experiments.ScaleResult) {
	f, err := os.Create(filepath.Join(dir, "scale_study.txt"))
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	fmt.Fprintf(f, "Beyond-paper scale study\n")
	fmt.Fprintf(f, "gomaxprocs: %d\n", res.GOMAXPROCS)
	fmt.Fprintf(f, "cpus: %d\n", runtime.NumCPU())
	fmt.Fprintf(f, "go: %s\n\n", runtime.Version())
	fmt.Fprintf(f, "%-14s %12s %10s %14s\n", "workload", "cycles", "wall_s", "cycles/sec")
	for _, p := range res.Points {
		fmt.Fprintf(f, "%-14s %12d %10.3f %14.0f\n", p.Workload, p.Cycles, p.WallSecs, p.CyclesPerSec)
	}
	fmt.Fprintf(f, "\nEach workload ran twice, an untimed warm-up and the timed run, and\n")
	fmt.Fprintf(f, "the study aborts unless the two Results match field for field.\n")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mcscale:", err)
	os.Exit(1)
}
