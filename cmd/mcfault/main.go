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
	"fmt"

	"multicastnet/internal/cli"
	"multicastnet/internal/experiments"
)

func main() {
	flags := cli.Register(cli.Out | cli.Quick | cli.Seed | cli.Parallel | cli.CSV | cli.SimCheck | cli.Profile)
	flags.Run(func() error {
		opts := experiments.FaultDefaults()
		if flags.Quick {
			opts = experiments.FaultQuick()
		}
		opts.Seed = flags.Seed
		opts.Parallel = flags.Parallel
		opts.Check = flags.SimCheck

		delivery, latency, cacheStats := experiments.FaultFiguresStats(opts)
		if err := flags.WriteFigures(delivery, latency); err != nil || flags.CSV {
			return err
		}
		printCacheStats(cacheStats)
		return nil
	})
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
