package sched

import (
	"testing"

	"multicastnet/internal/routing"
	"multicastnet/internal/topology"
)

func serveConfig(t *testing.T, budget int32, workers int) ServeConfig {
	m := topology.NewMesh2D(16, 16)
	cache := routing.NewPlanCache(0)
	return ServeConfig{
		Service: Config{
			Router:  newRouter(t, m, cache),
			Budget:  budget,
			Workers: workers,
		},
		Requests:         400,
		Groups:           24,
		AvgDests:         4,
		MeanInterarrival: 40,
		WindowCycles:     256,
		Flits:            16,
		Seed:             3,
		MaxCycles:        2_000_000,
		Cache:            cache,
	}
}

// TestServeCompletesAll pins the end-to-end loop: every offered request
// is planned, admitted, simulated, and completed, with sane latency
// ordering and a warm cache.
func TestServeCompletesAll(t *testing.T) {
	res := Serve(serveConfig(t, 40, 1))
	if res.Completed != res.Requests {
		t.Fatalf("completed %d of %d (deadlocked=%v)", res.Completed, res.Requests, res.Deadlocked)
	}
	if res.Deadlocked {
		t.Fatal("network reported deadlock")
	}
	if res.P50Latency <= 0 || res.P99Latency < res.P50Latency || res.MeanLatency <= 0 {
		t.Fatalf("latency stats implausible: %+v", res)
	}
	if res.ThroughputPerKCycle <= 0 {
		t.Fatalf("throughput %v, want > 0", res.ThroughputPerKCycle)
	}
	if res.CacheHitRate <= 0.5 {
		t.Fatalf("cache hit rate %.3f over a 24-group pool, want > 0.5", res.CacheHitRate)
	}
	if res.Windows == 0 || res.CacheLookups == 0 {
		t.Fatalf("counters empty: %+v", res)
	}
}

// TestServeDeterministic pins the determinism protocol end to end: the
// full ServeResult is identical at any planning worker count.
func TestServeDeterministic(t *testing.T) {
	want := Serve(serveConfig(t, 40, 1))
	if got := Serve(serveConfig(t, 40, 4)); got != want {
		t.Fatalf("workers=4 diverged:\nwant %+v\ngot  %+v", want, got)
	}
}

// TestServeFIFOBaseline pins the unbudgeted baseline: it also completes
// and never defers.
func TestServeFIFOBaseline(t *testing.T) {
	res := Serve(serveConfig(t, 0, 1))
	if res.Completed != res.Requests {
		t.Fatalf("completed %d of %d", res.Completed, res.Requests)
	}
	if res.Deferrals != 0 || res.ForceAdmits != 0 {
		t.Fatalf("FIFO baseline deferred: %+v", res)
	}
}
