// Command mcfault runs the fault-injection study: delivery ratio and
// operation latency vs link fault rate on an 8x8 mesh, one series per
// deadlock-free multicast scheme. Every operation executes the full
// degraded-mode stack — masked routing with fallback and escape-segment
// repair, mid-flight fault activation killing in-flight worms, and
// service-level retry with backoff.
//
// Usage:
//
//	mcfault -out results            # write fault_delivery/fault_latency (txt+csv)
//	mcfault -quick                  # reduced trial counts
//	mcfault -csv                    # emit CSV on stdout instead of files
//	mcfault -simcheck               # run wormsim invariant checks throughout
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"multicastnet/internal/experiments"
	"multicastnet/internal/profiling"
	"multicastnet/internal/stats"
)

func main() {
	out := flag.String("out", "results", "output directory")
	quick := flag.Bool("quick", false, "reduced trial counts and rate sweep")
	seed := flag.Uint64("seed", 1990, "study seed")
	csv := flag.Bool("csv", false, "emit CSV on stdout instead of writing files")
	parallel := flag.Int("parallel", 0, "sweep workers (0 = GOMAXPROCS, 1 = sequential)")
	simcheck := flag.Bool("simcheck", false, "run wormsim invariant checks inside every attempt")
	prof := profiling.AddFlags()
	flag.Parse()
	stopProf, err := prof.Start()
	if err != nil {
		fatal(err)
	}
	defer stopProf()

	opts := experiments.FaultDefaults()
	if *quick {
		opts = experiments.FaultQuick()
	}
	opts.Seed = *seed
	opts.Parallel = *parallel
	opts.Check = *simcheck

	delivery, latency, cacheStats := experiments.FaultFiguresStats(opts)

	if *csv {
		for _, fig := range []*stats.Figure{delivery, latency} {
			if err := fig.WriteCSV(os.Stdout); err != nil {
				fatal(err)
			}
		}
		return
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	for _, fig := range []*stats.Figure{delivery, latency} {
		base := strings.ReplaceAll(strings.ToLower(fig.ID), " ", "_")
		writeFigure(*out, base+".txt", fig, false)
		writeFigure(*out, base+".csv", fig, true)
		fmt.Printf("wrote %s\n", base)
	}
	printCacheStats(cacheStats)
}

// printCacheStats reports the retry path's plan-cache accounting: hits
// are attempts served by a surviving cached plan, invalidations are
// entries evicted by fault deltas (targeted: only plans touching dead
// channels). The sums are deterministic for any -parallel.
func printCacheStats(cs []experiments.SchemeCacheStats) {
	fmt.Printf("\nplan cache (summed over all fault points):\n")
	fmt.Printf("%-12s %8s %8s %10s %13s %9s\n",
		"scheme", "hits", "misses", "evictions", "invalidations", "hit_rate")
	for _, c := range cs {
		fmt.Printf("%-12s %8d %8d %10d %13d %9.3f\n",
			c.Scheme, c.Stats.Hits, c.Stats.Misses, c.Stats.Evictions,
			c.Stats.Invalidations, c.Stats.HitRate())
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
	fmt.Fprintln(os.Stderr, "mcfault:", err)
	os.Exit(1)
}
