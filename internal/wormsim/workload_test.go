package wormsim

import (
	"testing"

	"multicastnet/internal/core"
	"multicastnet/internal/labeling"
	"multicastnet/internal/topology"
)

// fixedWorkload returns a WorkloadFunc over a fixed request list.
func fixedWorkload(reqs []struct {
	at    int64
	src   topology.NodeID
	dests []topology.NodeID
}) WorkloadFunc {
	i := 0
	return func() (int64, core.MulticastSet, bool) {
		if i >= len(reqs) {
			return 0, core.MulticastSet{}, false
		}
		r := reqs[i]
		i++
		return r.at, core.MulticastSet{Source: r.src, Dests: r.dests}, true
	}
}

func workloadReqs(m *topology.Mesh2D) []struct {
	at    int64
	src   topology.NodeID
	dests []topology.NodeID
} {
	return []struct {
		at    int64
		src   topology.NodeID
		dests []topology.NodeID
	}{
		{0, 0, []topology.NodeID{9, 18, 27}},
		{5, 63, []topology.NodeID{0}},
		{5, 7, []topology.NodeID{56, 12}},
		{40, 21, []topology.NodeID{42, 43, 44}},
		{1000, 3, []topology.NodeID{60, 61}},
	}
}

// TestRunWorkloadInjection: a workload source replaces the per-node
// Poisson generators — every request is injected at its cycle, every
// destination delivers, and the run ends at stream drain, not MaxCycles.
func TestRunWorkloadInjection(t *testing.T) {
	m := topology.NewMesh2D(8, 8)
	l := labeling.NewMeshBoustrophedon(m)
	reqs := workloadReqs(m)
	wantDests := 0
	for _, r := range reqs {
		wantDests += len(r.dests)
	}
	res, err := Run(Config{
		Topology:   m,
		Route:      schemeRoute(t, "dual-path", m, l),
		Workload:   fixedWorkload(reqs),
		BatchSize:  10,
		MinBatches: 1 << 30, // never converge early: drain the stream
		MaxCycles:  100_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MulticastsSent != len(reqs) {
		t.Errorf("sent %d multicasts, want %d", res.MulticastsSent, len(reqs))
	}
	if res.Delivered != wantDests {
		t.Errorf("delivered %d destinations, want %d", res.Delivered, wantDests)
	}
	if res.Deadlocked {
		t.Error("workload run deadlocked")
	}
	// The last request launches at cycle 1000; the run must end shortly
	// after its delivery, not at the 100k cap.
	if res.Cycles >= 100_000 || res.Cycles < 1000 {
		t.Errorf("run spanned %d cycles, want drain shortly after cycle 1000", res.Cycles)
	}
}

// TestRunWorkloadValidation: a config with neither a rate nor a
// workload source is rejected.
func TestRunWorkloadValidation(t *testing.T) {
	m := topology.NewMesh2D(4, 4)
	l := labeling.NewMeshBoustrophedon(m)
	_, err := Run(Config{Topology: m, Route: schemeRoute(t, "dual-path", m, l)})
	if err == nil {
		t.Fatal("config without rate or workload accepted, want error")
	}
}
