package wormsim

import (
	"strings"
	"testing"

	"multicastnet/internal/core"
	"multicastnet/internal/dfr"
	"multicastnet/internal/labeling"
	"multicastnet/internal/topology"
	"multicastnet/internal/workload"
)

// fixedWorkload replays a fixed request list as a recorded trace.
func fixedWorkload(reqs []workload.Request) workload.Source {
	return (&workload.Trace{Reqs: reqs}).Source()
}

func workloadReqs() []workload.Request {
	return []workload.Request{
		{At: 0, Src: 0, Dests: []topology.NodeID{9, 18, 27}},
		{At: 5, Src: 63, Dests: []topology.NodeID{0}},
		{At: 5, Src: 7, Dests: []topology.NodeID{56, 12}},
		{At: 40, Src: 21, Dests: []topology.NodeID{42, 43, 44}},
		{At: 1000, Src: 3, Dests: []topology.NodeID{60, 61}},
	}
}

// TestRunWorkloadInjection: a workload source replaces the per-node
// Poisson generators — every request is injected at its cycle, every
// destination delivers, and the run ends at stream drain, not MaxCycles.
func TestRunWorkloadInjection(t *testing.T) {
	m := topology.NewMesh2D(8, 8)
	l := labeling.NewMeshBoustrophedon(m)
	reqs := workloadReqs()
	wantDests := 0
	for _, r := range reqs {
		wantDests += len(r.Dests)
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

// TestRunRejectsInvalidConfig: Run returns an error, without
// simulating, for a config with neither a rate nor a workload source, for
// a fault schedule out of cycle order, which would activate its late
// epochs silently late, and for an epoch that swaps Route under a
// LiveRoute, which overrides the swap.
func TestRunRejectsInvalidConfig(t *testing.T) {
	m := topology.NewMesh2D(4, 4)
	l := labeling.NewMeshBoustrophedon(m)
	route := schemeRoute(t, "dual-path", m, l)
	live := func(k core.MulticastSet, _ dfr.ChannelOracle) Injection { return route(k) }
	dead := func(c dfr.Channel) bool { return c.From == 5 }
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"no rate or workload", Config{Topology: m, Route: route}, "MeanInterarrivalMicros"},
		{"faults out of order", Config{Topology: m, Route: route, MeanInterarrivalMicros: 300,
			Faults: []ScheduledFault{{Cycle: 20_000, Dead: dead}, {Cycle: 1_000, Dead: dead}}},
			"out of order: cycle 1000 after cycle 20000"},
		{"route swap under LiveRoute", Config{Topology: m, LiveRoute: live, MeanInterarrivalMicros: 300,
			Faults: []ScheduledFault{{Cycle: 1_000, Route: route}}},
			"fault epoch at cycle 1000 swaps Route"},
	} {
		_, err := Run(tc.cfg)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Run = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
	// The same epochs in order, and a fail-only epoch under LiveRoute, run.
	for _, cfg := range []Config{
		{Topology: m, Route: route, Faults: []ScheduledFault{{Cycle: 1_000, Dead: dead}, {Cycle: 1_000, Route: route}}},
		{Topology: m, LiveRoute: live, Faults: []ScheduledFault{{Cycle: 1_000, Dead: dead}}},
	} {
		cfg.MeanInterarrivalMicros, cfg.MaxCycles = 300, 2_000
		if _, err := Run(cfg); err != nil {
			t.Errorf("valid schedule rejected: %v", err)
		}
	}
}
