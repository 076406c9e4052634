package sched

import (
	"testing"

	"multicastnet/internal/workload"
)

// serveConfig serves a uniform stream of 400 requests over a pool of 24
// groups at mean gap 40.
func serveConfig(t *testing.T, budget int32, workers int) ServeConfig {
	spec := workload.Spec{Model: workload.ModelUniform, Requests: 400, Groups: 24, AvgDests: 4, MeanGap: 40}
	return workloadServeConfig(t, budget, workers, spec, 3)
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
// full ServeResult is identical at any planning worker count, and with
// the simulator's invariant audit on, which must find no violation.
func TestServeDeterministic(t *testing.T) {
	want := Serve(serveConfig(t, 40, 1))
	if got := Serve(serveConfig(t, 40, 4)); got != want {
		t.Fatalf("workers=4 diverged:\nwant %+v\ngot  %+v", want, got)
	}
	checked := serveConfig(t, 40, 1)
	checked.Check = true
	if got := Serve(checked); got != want {
		t.Fatalf("Check diverged:\nwant %+v\ngot  %+v", want, got)
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

// TestServeNilWorkload: the stream is Serve's one request source, and a
// missing one panics with a message naming the field.
func TestServeNilWorkload(t *testing.T) {
	cfg := serveConfig(t, 40, 1)
	cfg.Workload = nil
	defer func() {
		if r := recover(); r != "sched: ServeConfig.Workload is required" {
			t.Fatalf("recovered %v, want the nil-Workload panic", r)
		}
	}()
	Serve(cfg)
}
