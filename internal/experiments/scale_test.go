package experiments

import (
	"bytes"
	"testing"

	"multicastnet/internal/stats"
	"multicastnet/internal/topology"
	"multicastnet/internal/wormsim"
)

// TestScaleStudySmall runs the full study machinery on a reduced
// workload set. ScaleStudy itself panics if a workload's timed run
// diverges from its warm-up run, so passing implies run-to-run
// determinism on every covered topology; the assertions below pin the
// reporting and the audit's panic.
func TestScaleStudySmall(t *testing.T) {
	o := ScaleOptions{
		Seed: 7,
		Workloads: []ScaleWorkload{
			{
				Name:               "mesh16x16",
				Build:              func() topology.Topology { return topology.NewMesh2D(16, 16) },
				Scheme:             "dual-path",
				InterarrivalMicros: 1200,
				AvgDests:           8,
				MaxCycles:          6_000,
			},
			{
				Name:               "hypercube256",
				Build:              func() topology.Topology { return topology.NewHypercube(8) },
				Scheme:             "multi-path",
				InterarrivalMicros: 4800,
				AvgDests:           8,
				MaxCycles:          6_000,
			},
		},
		Check: true,
	}
	res := ScaleStudy(o)
	if got, want := len(res.Points), 2; got != want {
		t.Fatalf("points = %d, want %d", got, want)
	}
	for _, p := range res.Points {
		if p.Cycles != 6_000 || p.CyclesPerSec <= 0 || p.AllocMB <= 0 {
			t.Errorf("%s: degenerate measurement %+v", p.Workload, p)
		}
	}

	warm := wormsim.Result{Cycles: 6_000, Delivered: 40}
	timed := warm
	timed.Delivered++
	defer func() {
		if recover() == nil {
			t.Fatal("scaleAudit accepted a timed run that diverged from its warm-up")
		}
	}()
	scaleAudit("diverged", warm, timed)
}

// figCSV renders a figure to CSV bytes for identity comparison.
func figCSV(t *testing.T, f *stats.Figure) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := f.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
