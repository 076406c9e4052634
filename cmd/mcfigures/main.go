// Command mcfigures regenerates every table and figure of the
// dissertation into a results directory: Tables 5.1–5.4, the worked route
// examples of Chapters 5 and 6, the deadlock demonstrations, Fig. 2.3,
// the static figures 7.1–7.7 (plus ablations), and the dynamic figures
// 7.8–7.11. Each figure is written both as an aligned text table and as
// CSV. -fig prints any one of those files on stdout instead, byte for
// byte, computing only that artifact.
//
// Usage:
//
//	mcfigures -out results -quick         # reduced workloads (seconds): the committed results/
//	mcfigures -out full                   # full fidelity (about 2 minutes on 2 vCPUs)
//	mcfigures -quick -fig fig_7_10 -csv   # results/fig_7_10.csv on stdout
//	mcfigures -quick -scheme fixed-path   # latency vs load for one registry scheme, on stdout
//	mcfigures -bench -out .               # write BENCH_wormsim.json only
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"multicastnet/internal/cli"
	"multicastnet/internal/experiments"
	"multicastnet/internal/stats"
)

func main() {
	flags := cli.Register(cli.Out | cli.Quick | cli.Seed | cli.Parallel | cli.CSV | cli.SimCheck | cli.Scheme | cli.Profile)
	figName := flag.String("fig", "", "print one results/ artifact on stdout by base name (e.g. fig_7_11, table_5_1); with -csv its CSV twin")
	bench := flag.Bool("bench", false, "measure simulator throughput and figure wall times, write BENCH_wormsim.json, and exit")
	benchCompare := flag.String("bench-compare", "", "measure throughput against this committed BENCH_wormsim.json: exit 1 if the core regressed >25%, warn from 15%")
	flags.Run(func() error {
		if *benchCompare != "" {
			return runBenchCompare(*benchCompare)
		}

		sopts, dopts := experiments.Defaults(), experiments.DynamicDefaults()
		if flags.Quick {
			sopts, dopts = experiments.Quick(), experiments.DynamicQuick()
		}
		sopts.Seed, dopts.Seed = flags.Seed, flags.Seed
		sopts.Parallel, dopts.Parallel = flags.Parallel, flags.Parallel
		dopts.Check = flags.SimCheck

		if *bench {
			return runBench(flags.Out, dopts)
		}

		switch {
		case *figName != "" && flags.Scheme != "":
			return errors.New("-fig and -scheme each print one figure; give one of them")
		case flags.Scheme != "":
			fig, err := experiments.FigSchemeLoad(flags.Scheme, dopts)
			if err != nil {
				return err
			}
			return printFigure(fig, flags.CSV)
		case *figName != "":
			return printArtifact(artifacts(sopts, dopts), *figName, flags.CSV)
		}
		for _, a := range artifacts(sopts, dopts) {
			var err error
			switch {
			case a.fig != nil:
				err = flags.WriteFigures(a.fig())
			case !flags.CSV:
				err = flags.WriteText(a.base+".txt", a.text)
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
}

// artifact is one results/ entry under its file base name: a text file
// BASE.txt, or a figure written as BASE.txt and BASE.csv. Nothing is
// computed until the entry is written.
type artifact struct {
	base string
	text func(io.Writer) error
	fig  func() *stats.Figure
}

// artifacts lists every results/ entry in the order a full run writes
// them.
func artifacts(sopts experiments.Options, dopts experiments.DynamicOptions) []artifact {
	return []artifact{
		// Chapter 5 tables and worked examples.
		{base: "table_5_1", text: experiments.WriteTable51},
		{base: "table_5_2", text: experiments.WriteTable52},
		{base: "table_5_3", text: experiments.WriteTable53},
		{base: "table_5_4", text: experiments.WriteTable54},
		{base: "examples", text: func(w io.Writer) error { return experiments.ExampleRoutes(w, sopts.Parallel) }},
		{base: "deadlocks", text: func(w io.Writer) error { return experiments.DeadlockDemos(w, sopts.Parallel) }},

		// Figures.
		{base: "fig_2_3", fig: experiments.Fig23Switching},
		{base: "fig_7_1", fig: with(experiments.Fig71SortedMPMesh, sopts)},
		{base: "fig_7_2", fig: with(experiments.Fig72SortedMPCube, sopts)},
		{base: "fig_7_3", fig: with(experiments.Fig73GreedySTMesh, sopts)},
		{base: "fig_7_4", fig: with(experiments.Fig74GreedySTCube, sopts)},
		{base: "fig_7_5", fig: with(experiments.Fig75MTMesh, sopts)},
		{base: "fig_7_6", fig: with(experiments.Fig76PathTrafficCube, sopts)},
		{base: "fig_7_7", fig: with(experiments.Fig77PathTrafficMesh, sopts)},
		{base: "ablation_a", fig: with(experiments.AblationLabeling, sopts)},
		{base: "ablation_b", fig: with(experiments.AblationDestinationOrder, sopts)},
		{base: "ext_v", fig: with(experiments.ExtVirtualChannelsStatic, sopts)},
		{base: "ext_3d", fig: with(experiments.ExtDualPath3D, sopts)},
		{base: "fig_7_8", fig: with(experiments.Fig78LatencyVsLoadDouble, dopts)},
		{base: "fig_7_9", fig: with(experiments.Fig79LatencyVsDestsDouble, dopts)},
		{base: "fig_7_10", fig: with(experiments.Fig710LatencyVsLoadSingle, dopts)},
		{base: "fig_7_11", fig: with(experiments.Fig711LatencyVsDestsSingle, dopts)},
		{base: "ext_v-dyn", fig: with(experiments.ExtVirtualChannelsDynamic, dopts)},
		{base: "ext_u", fig: with(experiments.ExtUnicastMix, dopts)},
		{base: "ext_a", fig: with(experiments.ExtAdaptive, dopts)},
	}
}

// with defers a figure runner until its figure is needed.
func with[O any](run func(O) *stats.Figure, opts O) func() *stats.Figure {
	return func() *stats.Figure { return run(opts) }
}

// printArtifact writes the named entry's BASE.txt, or with csv its
// BASE.csv, to stdout.
func printArtifact(arts []artifact, name string, csv bool) error {
	var names []string
	for _, a := range arts {
		switch {
		case a.base != name:
			names = append(names, a.base)
		case a.fig != nil:
			return printFigure(a.fig(), csv)
		case csv:
			return fmt.Errorf("%s has no CSV form", name)
		default:
			return a.text(os.Stdout)
		}
	}
	return fmt.Errorf("unknown figure %q (want one of %s)", name, strings.Join(names, ", "))
}

// printFigure writes fig to stdout as its aligned table or as CSV.
func printFigure(fig *stats.Figure, csv bool) error {
	if csv {
		return fig.WriteCSV(os.Stdout)
	}
	return fig.WriteTable(os.Stdout)
}

// benchReport is the schema of BENCH_wormsim.json: simulator core
// throughput plus the wall time of each dynamic figure at the selected fidelity and worker count. The whole
// report is produced in one deterministic pass — every measured run uses
// the same seed and workload, so only the wall times vary between hosts.
type benchReport struct {
	Quick      bool `json:"quick"`
	Parallel   int  `json:"parallel"`
	GOMAXPROCS int  `json:"gomaxprocs"`
	// CyclesPerSec is the core throughput, the regression-gate field.
	CyclesPerSec float64       `json:"cycles_per_sec"`
	Figures      []figureBench `json:"figures"`
}

type figureBench struct {
	ID     string  `json:"id"`
	WallMs float64 `json:"wall_ms"`
}

func runBench(out string, dopts experiments.DynamicOptions) error {
	cycles, secs := experiments.SimThroughput(dopts.Seed, 200_000)
	report := benchReport{
		Quick:        dopts.Loads != nil,
		Parallel:     dopts.Parallel,
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		CyclesPerSec: float64(cycles) / secs,
	}
	figs := []struct {
		id string
		fn func(experiments.DynamicOptions) *stats.Figure
	}{
		{"Fig 7.8", experiments.Fig78LatencyVsLoadDouble},
		{"Fig 7.9", experiments.Fig79LatencyVsDestsDouble},
		{"Fig 7.10", experiments.Fig710LatencyVsLoadSingle},
		{"Fig 7.11", experiments.Fig711LatencyVsDestsSingle},
	}
	for _, f := range figs {
		start := time.Now()
		f.fn(dopts)
		report.Figures = append(report.Figures, figureBench{
			ID: f.id, WallMs: float64(time.Since(start).Microseconds()) / 1000,
		})
	}
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	path := filepath.Join(out, "BENCH_wormsim.json")
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%.0f cycles/sec)\n", path, report.CyclesPerSec)
	return nil
}

// runBenchCompare is the CI bench-regression gate. The core throughput
// FAILS the build (exit 1) on a >25% drop against the committed
// baseline — large enough that shared-runner noise does not trip it,
// small enough to catch a real hot-loop regression — and warns from
// 15%.
func runBenchCompare(path string) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var baseline benchReport
	if err := json.Unmarshal(buf, &baseline); err != nil {
		return err
	}
	if baseline.CyclesPerSec <= 0 {
		return fmt.Errorf("baseline %s has no cycles_per_sec", path)
	}
	seed := experiments.DynamicDefaults().Seed
	cycles, secs := experiments.SimThroughput(seed, 200_000)
	got := float64(cycles) / secs
	ratio := got / baseline.CyclesPerSec
	fmt.Printf("bench-compare: %.0f cycles/sec vs baseline %.0f (%.2fx)\n",
		got, baseline.CyclesPerSec, ratio)
	switch {
	case ratio < 0.75:
		fmt.Printf("FAIL: simulator throughput regressed >25%% against %s\n", path)
		return errors.New("bench-compare failed")
	case ratio < 0.85:
		fmt.Printf("WARN: simulator throughput regressed >15%% against %s\n", path)
	}
	return nil
}
