package experiments

import (
	"bytes"
	"testing"

	"multicastnet/internal/topology"
)

// workloadTestOptions is a reduced workload study: short streams, three
// models, one small topology. The committed study's full machinery —
// paired streams, both sweeps, rankings — still runs.
func workloadTestOptions() WorkloadOptions {
	o := WorkloadQuick()
	o.Seed = 7
	o.Requests = 150
	o.Groups = 16
	o.MeanGap = 2
	o.Budget = 40
	o.MaxCycles = 1_000_000
	o.Models = []string{"uniform", "zipf", "bursty"}
	o.Topos = []WorkloadTopo{{
		Name:    "mesh",
		Build:   func() topology.Topology { return topology.NewMesh2D(8, 8) },
		Schemes: []string{"dual-path", "multi-path"},
	}}
	return o
}

// TestWorkloadStudySmall runs the reduced workload study and pins its
// invariants: every stream drains under every scheme, the packer sweep
// serves every request, and every output is byte-identical across sweep
// workers and planner workers.
func TestWorkloadStudySmall(t *testing.T) {
	o := workloadTestOptions()
	o.Parallel = 1
	serial := WorkloadStudy(o)

	if got, want := len(serial.SchemeFigs), 1; got != want {
		t.Fatalf("%d scheme figures, want %d", got, want)
	}
	if got := len(serial.SchemeFigs[0].Series); got != 2 {
		t.Errorf("scheme figure has %d series, want 2", got)
	}
	if got, want := len(serial.Points), 2*len(o.Models); got != want {
		t.Fatalf("%d scheme points, want %d", got, want)
	}
	if got, want := len(serial.PackerPoints), 2*len(o.Models); got != want {
		t.Fatalf("%d packer points, want %d", got, want)
	}
	for _, p := range serial.Points {
		if p.Deadlocked {
			t.Errorf("%s/%s/%s deadlocked", p.Topo, p.Model, p.Scheme)
		}
		if p.Delivered == 0 {
			t.Errorf("%s/%s/%s delivered nothing", p.Topo, p.Model, p.Scheme)
		}
		if p.Cycles >= o.MaxCycles {
			t.Errorf("%s/%s/%s hit MaxCycles: stream did not drain", p.Topo, p.Model, p.Scheme)
		}
	}
	for _, p := range serial.PackerPoints {
		if p.Completed != p.Requests {
			t.Errorf("packer %s/%s completed %d of %d", p.Model, p.Policy, p.Completed, p.Requests)
		}
	}
	// Paired streams: both schemes see the identical request count per
	// (topo, model), so Delivered matches between them.
	byModel := map[string][]WorkloadPoint{}
	for _, p := range serial.Points {
		byModel[p.Model] = append(byModel[p.Model], p)
	}
	for model, ps := range byModel {
		for _, p := range ps[1:] {
			if p.Delivered != ps[0].Delivered {
				t.Errorf("%s: schemes %s and %s delivered %d vs %d — streams not paired",
					model, p.Scheme, ps[0].Scheme, p.Delivered, ps[0].Delivered)
			}
		}
	}
	if r := serial.SchemeRanking("mesh", "uniform"); len(r) != 2 {
		t.Errorf("uniform ranking %v, want 2 schemes", r)
	}

	// Byte-identity across sweep workers and planner workers.
	o.Parallel = 4
	par := WorkloadStudy(o)
	figs := [][2][]byte{
		{figCSV(t, serial.SchemeFigs[0]), figCSV(t, par.SchemeFigs[0])},
		{figCSV(t, serial.PackerThroughput), figCSV(t, par.PackerThroughput)},
		{figCSV(t, serial.PackerP99), figCSV(t, par.PackerP99)},
	}
	for i, f := range figs {
		if !bytes.Equal(f[0], f[1]) {
			t.Errorf("figure %d diverges between parallel=1 and parallel=4:\n%s\n---\n%s",
				i, f[0], f[1])
		}
	}
	for i := range serial.Points {
		if serial.Points[i] != par.Points[i] {
			t.Errorf("scheme point %d diverges:\nserial %+v\npar    %+v",
				i, serial.Points[i], par.Points[i])
		}
	}
	for i := range serial.PackerPoints {
		if serial.PackerPoints[i] != par.PackerPoints[i] {
			t.Errorf("packer point %d diverges:\nserial %+v\npar    %+v",
				i, serial.PackerPoints[i], par.PackerPoints[i])
		}
	}
}

// TestServeStudyWorkloadOption: the serving study runs a workload model
// other than its default uniform one and stays deterministic.
func TestServeStudyWorkloadOption(t *testing.T) {
	o := serveTestOptions()
	o.Workload = "zipf"
	o.Parallel = 1
	serial := ServeStudy(o)
	for _, p := range serial.Points {
		if p.Completed == 0 || p.Completed != p.Requests {
			t.Errorf("%s ia=%g: completed %d of %d", p.Policy, p.MeanInterarrival, p.Completed, p.Requests)
		}
	}
	o.Parallel = 3
	par := ServeStudy(o)
	for i := range serial.Points {
		if serial.Points[i] != par.Points[i] {
			t.Errorf("point %d diverges under workers:\nserial %+v\npar    %+v",
				i, serial.Points[i], par.Points[i])
		}
	}
}

// TestWorkloadStudySpecErrors: unknown model names error instead of
// silently falling back to uniform.
func TestWorkloadStudySpecErrors(t *testing.T) {
	if _, err := workloadStudySpec("warp", 10, 4, 2, 1, 1.2); err == nil {
		t.Error("unknown model accepted")
	}
	for _, m := range WorkloadModelNames() {
		if _, err := workloadStudySpec(m, 10, 4, 2, 1, 1.2); err != nil {
			t.Errorf("%s rejected: %v", m, err)
		}
	}
}

// TestRecordWorkload: the CLI's record path produces the stream the
// study runs.
func TestRecordWorkload(t *testing.T) {
	o := workloadTestOptions()
	tr, err := RecordWorkload("bursty", o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Reqs) != o.Requests {
		t.Fatalf("recorded %d requests, want %d", len(tr.Reqs), o.Requests)
	}
	if _, err := RecordWorkload("warp", o); err == nil {
		t.Error("unknown model accepted")
	}
}
