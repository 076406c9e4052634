// Command mcdynamic regenerates the dynamic wormhole simulations of
// Section 7.2 (Figures 7.8–7.11): average network latency under load for
// the deadlock-free multicast schemes on an 8x8 mesh with 128-byte
// messages and 20 Mbyte/s channels.
//
// Usage:
//
//	mcdynamic                      # all four figures at full fidelity
//	mcdynamic -quick               # reduced sweeps for a fast look
//	mcdynamic -fig 7.10 -csv       # one figure as CSV
//	mcdynamic -scheme fixed-path   # latency-vs-load for one registry scheme
//	mcdynamic -list-schemes        # print the routing-engine registry
package main

import (
	"flag"
	"fmt"
	"os"

	"multicastnet/internal/experiments"
	"multicastnet/internal/profiling"
	"multicastnet/internal/routing"
	"multicastnet/internal/stats"
)

func main() {
	quick := flag.Bool("quick", false, "reduced sweeps and cycle budgets")
	seed := flag.Uint64("seed", 1990, "workload seed")
	maxCycles := flag.Int64("maxcycles", 0, "override cycle budget per point")
	figID := flag.String("fig", "", "only this figure (7.8, 7.9, 7.10, 7.11)")
	scheme := flag.String("scheme", "", "simulate one routing-engine scheme by name (see -list-schemes)")
	listSchemes := flag.Bool("list-schemes", false, "list the routing-engine schemes and exit")
	csv := flag.Bool("csv", false, "emit CSV instead of a table")
	parallel := flag.Int("parallel", 0, "sweep workers (0 = GOMAXPROCS, 1 = sequential)")
	simcheck := flag.Bool("simcheck", false, "run wormsim invariant checks inside every simulation")
	prof := profiling.AddFlags()
	flag.Parse()
	stopProf, err := prof.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "mcdynamic:", err)
		os.Exit(1)
	}
	defer stopProf()

	if *listSchemes {
		for _, info := range routing.Schemes() {
			safety := "deadlock-free"
			if !info.DeadlockFree {
				safety = "NOT deadlock-free"
			}
			fmt.Printf("%-18s %-18s %s\n", info.Name, safety, info.Description)
		}
		return
	}

	opts := experiments.DynamicDefaults()
	if *quick {
		opts = experiments.DynamicQuick()
	}
	opts.Seed = *seed
	if *maxCycles > 0 {
		opts.MaxCycles = *maxCycles
	}
	opts.Parallel = *parallel
	opts.Check = *simcheck

	// Surface each figure sweep's plan-cache accounting. The counts
	// depend on sweep scheduling (parallel workers racing to plan the
	// same multicast both miss), so they accompany the output rather
	// than being part of any committed figure.
	type cacheLine struct {
		figure string
		stats  routing.CacheStats
	}
	var cacheLines []cacheLine
	experiments.FigureCacheStats = func(figure string, s routing.CacheStats) {
		cacheLines = append(cacheLines, cacheLine{figure, s})
	}
	printCacheLines := func() {
		if *csv || len(cacheLines) == 0 {
			return
		}
		fmt.Printf("plan cache per figure sweep:\n")
		fmt.Printf("%-14s %8s %8s %10s %9s\n", "figure", "hits", "misses", "evictions", "hit_rate")
		for _, l := range cacheLines {
			fmt.Printf("%-14s %8d %8d %10d %9.3f\n",
				l.figure, l.stats.Hits, l.stats.Misses, l.stats.Evictions, l.stats.HitRate())
		}
	}

	figs := map[string]func(experiments.DynamicOptions) *stats.Figure{
		"7.8":  experiments.Fig78LatencyVsLoadDouble,
		"7.9":  experiments.Fig79LatencyVsDestsDouble,
		"7.10": experiments.Fig710LatencyVsLoadSingle,
		"7.11": experiments.Fig711LatencyVsDestsSingle,
	}
	order := []string{"7.8", "7.9", "7.10", "7.11"}

	emit := func(fig *stats.Figure) {
		var err error
		if *csv {
			err = fig.WriteCSV(os.Stdout)
		} else {
			err = fig.WriteTable(os.Stdout)
			fmt.Println()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "mcdynamic:", err)
			os.Exit(1)
		}
	}

	run := func(id string) {
		fn, ok := figs[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "mcdynamic: unknown figure %q\n", id)
			os.Exit(1)
		}
		emit(fn(opts))
	}

	if *scheme != "" {
		fig, err := experiments.FigSchemeLoad(*scheme, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mcdynamic:", err)
			os.Exit(1)
		}
		emit(fig)
		printCacheLines()
		return
	}

	if *figID != "" {
		run(*figID)
		printCacheLines()
		return
	}
	for _, id := range order {
		run(id)
	}
	printCacheLines()
}
