package experiments

import (
	"bytes"
	"testing"

	"multicastnet/internal/topology"
)

// churnTestOptions is a reduced study: small topologies, short streams,
// tiny cycle budgets. Everything the committed study pins is still
// exercised — both invalidation policies, the timing comparison, and the
// delta-driven simulator runs.
func churnTestOptions() ChurnOptions {
	o := ChurnQuick()
	o.Seed = 7
	o.SimCycles = 4_000
	o.Workloads = []ChurnWorkload{
		{
			Name:       "mesh16x16",
			Build:      func() topology.Topology { return topology.NewMesh2D(16, 16) },
			Scheme:     "dual-path",
			Steps:      24,
			WorkingSet: 12,
			Dests:      6,
			SimFaults:  6,
		},
		{
			Name:       "hypercube256",
			Build:      func() topology.Topology { return topology.NewHypercube(8) },
			Scheme:     "multi-path",
			Steps:      24,
			WorkingSet: 12,
			Dests:      6,
			SimFaults:  6,
		},
	}
	o.Check = true
	return o
}

// TestChurnStudySmall runs the full churn study machinery on a reduced
// workload set and pins its invariants: the deterministic figures and
// the simulator accounting are byte-identical at any worker count, and
// targeted invalidation beats the nuke-everything baseline on cache hit
// rate.
func TestChurnStudySmall(t *testing.T) {
	o := churnTestOptions()
	o.Parallel = 1
	serial := ChurnStudy(o)

	if got, want := len(serial.HitRate.Series), 4; got != want {
		t.Fatalf("hit-rate series = %d, want %d", got, want)
	}
	if got, want := len(serial.Evictions.Series), 4; got != want {
		t.Fatalf("eviction series = %d, want %d", got, want)
	}
	if got, want := len(serial.Timings), 2; got != want {
		t.Fatalf("timings = %d, want %d", got, want)
	}
	for _, tm := range serial.Timings {
		if tm.IncrementalMs <= 0 || tm.RebuildMs <= 0 {
			t.Errorf("%s: degenerate timing %+v", tm.Workload, tm)
		}
		if tm.TargetedHitRate <= tm.NukeHitRate {
			t.Errorf("%s: targeted hit rate %.3f not above nuke-all %.3f",
				tm.Workload, tm.TargetedHitRate, tm.NukeHitRate)
		}
	}
	if got, want := len(serial.Sims), 2; got != want {
		t.Fatalf("sims = %d, want %d", got, want)
	}
	for _, s := range serial.Sims {
		if s.Epochs == 0 {
			t.Errorf("%s: no fault epochs scheduled", s.Workload)
		}
		if s.Delivered == 0 {
			t.Errorf("%s: nothing delivered", s.Workload)
		}
		if s.Deadlocked {
			t.Errorf("%s: deadlocked", s.Workload)
		}
	}

	// Same study under the worker pool: the figures and the sims'
	// accounting must be byte-identical.
	o.Parallel = 4
	par := ChurnStudy(o)
	if a, b := figCSV(t, serial.HitRate), figCSV(t, par.HitRate); !bytes.Equal(a, b) {
		t.Errorf("hit-rate figure diverges between parallel=1 and parallel=4:\n%s\n---\n%s", a, b)
	}
	if a, b := figCSV(t, serial.Evictions), figCSV(t, par.Evictions); !bytes.Equal(a, b) {
		t.Errorf("eviction figure diverges between parallel=1 and parallel=4:\n%s\n---\n%s", a, b)
	}
	for i := range serial.Sims {
		a, b := serial.Sims[i], par.Sims[i]
		if a != b {
			t.Errorf("sim %s diverges between parallel=1 and parallel=4:\na=%+v\nb=%+v",
				a.Workload, a, b)
		}
	}
}
