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

		return flags.WriteFigures(experiments.FaultFigures(opts))
	})
}
