// Command mcfigures regenerates every table and figure of the
// dissertation into a results directory: Tables 5.1–5.4, the worked route
// examples of Chapters 5 and 6, the deadlock demonstrations, Fig. 2.3,
// the static figures 7.1–7.7 (plus ablations), and the dynamic figures
// 7.8–7.11. Each artifact is written both as an aligned text table and as
// CSV.
//
// Usage:
//
//	mcfigures -out results -quick   # reduced workloads (seconds): the committed results/
//	mcfigures -out full             # full fidelity (about 2 minutes on 2 vCPUs)
//	mcfigures -bench -out .         # write BENCH_wormsim.json only
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"multicastnet/internal/experiments"
	"multicastnet/internal/profiling"
	"multicastnet/internal/stats"
)

func main() {
	out := flag.String("out", "results", "output directory")
	quick := flag.Bool("quick", false, "reduced workloads")
	parallel := flag.Int("parallel", 0, "sweep workers (0 = GOMAXPROCS, 1 = sequential)")
	bench := flag.Bool("bench", false, "measure simulator throughput and figure wall times, write BENCH_wormsim.json, and exit")
	benchCompare := flag.String("bench-compare", "", "measure throughput against this committed BENCH_wormsim.json: exit 1 if the core regressed >25%, warn from 15%")
	prof := profiling.AddFlags()
	flag.Parse()
	stopProf, err := prof.Start()
	if err != nil {
		fatal(err)
	}
	defer stopProf()

	if *benchCompare != "" {
		runBenchCompare(*benchCompare)
		return
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}

	sopts := experiments.Defaults()
	dopts := experiments.DynamicDefaults()
	if *quick {
		sopts = experiments.Quick()
		dopts = experiments.DynamicQuick()
	}
	sopts.Parallel = *parallel
	dopts.Parallel = *parallel

	if *bench {
		runBench(*out, dopts)
		return
	}

	// Chapter 5 tables and worked examples.
	writeText(*out, "table_5_1.txt", experiments.WriteTable51)
	writeText(*out, "table_5_2.txt", experiments.WriteTable52)
	writeText(*out, "table_5_3.txt", experiments.WriteTable53)
	writeText(*out, "table_5_4.txt", experiments.WriteTable54)
	writeText(*out, "examples.txt", func(w io.Writer) error { return experiments.ExampleRoutes(w, *parallel) })
	writeText(*out, "deadlocks.txt", func(w io.Writer) error { return experiments.DeadlockDemos(w, *parallel) })

	// Figures.
	figures := []*stats.Figure{
		experiments.Fig23Switching(),
		experiments.Fig71SortedMPMesh(sopts),
		experiments.Fig72SortedMPCube(sopts),
		experiments.Fig73GreedySTMesh(sopts),
		experiments.Fig74GreedySTCube(sopts),
		experiments.Fig75MTMesh(sopts),
		experiments.Fig76PathTrafficCube(sopts),
		experiments.Fig77PathTrafficMesh(sopts),
		experiments.AblationLabeling(sopts),
		experiments.AblationDestinationOrder(sopts),
		experiments.ExtVirtualChannelsStatic(sopts),
		experiments.ExtDualPath3D(sopts),
		experiments.Fig78LatencyVsLoadDouble(dopts),
		experiments.Fig79LatencyVsDestsDouble(dopts),
		experiments.Fig710LatencyVsLoadSingle(dopts),
		experiments.Fig711LatencyVsDestsSingle(dopts),
		experiments.ExtVirtualChannelsDynamic(dopts),
		experiments.ExtUnicastMix(dopts),
		experiments.ExtAdaptive(dopts),
	}
	for _, fig := range figures {
		base := figBase(fig.ID)
		writeFigure(*out, base+".txt", fig, false)
		writeFigure(*out, base+".csv", fig, true)
		fmt.Printf("wrote %s\n", base)
	}
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

func runBench(out string, dopts experiments.DynamicOptions) {
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
	path := filepath.Join(out, "BENCH_wormsim.json")
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s (%.0f cycles/sec)\n", path, report.CyclesPerSec)
}

// runBenchCompare is the CI bench-regression gate. The core throughput
// FAILS the build (exit 1) on a >25% drop against the committed
// baseline — large enough that shared-runner noise does not trip it,
// small enough to catch a real hot-loop regression — and warns from
// 15%.
func runBenchCompare(path string) {
	buf, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	var baseline benchReport
	if err := json.Unmarshal(buf, &baseline); err != nil {
		fatal(err)
	}
	if baseline.CyclesPerSec <= 0 {
		fatal(fmt.Errorf("baseline %s has no cycles_per_sec", path))
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
		os.Exit(1)
	case ratio < 0.85:
		fmt.Printf("WARN: simulator throughput regressed >15%% against %s\n", path)
	}
}

func figBase(id string) string {
	s := strings.ToLower(id)
	s = strings.ReplaceAll(s, " ", "_")
	s = strings.ReplaceAll(s, ".", "_")
	return s
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

func writeText(dir, name string, fn func(w io.Writer) error) {
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	if err := fn(f); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n", name)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mcfigures:", err)
	os.Exit(1)
}
