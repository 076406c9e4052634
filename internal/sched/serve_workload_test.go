package sched

import (
	"testing"

	"multicastnet/internal/routing"
	"multicastnet/internal/topology"
	"multicastnet/internal/workload"
)

func workloadServeConfig(t *testing.T, budget int32, workers int, spec workload.Spec) ServeConfig {
	t.Helper()
	m := topology.NewMesh2D(16, 16)
	src, err := workload.New(m, spec, 31)
	if err != nil {
		t.Fatal(err)
	}
	cache := routing.NewPlanCache(0)
	return ServeConfig{
		Service: Config{
			Router:  newRouter(t, m, cache),
			Budget:  budget,
			Workers: workers,
		},
		Requests:     spec.Requests,
		WindowCycles: 256,
		Flits:        16,
		MaxCycles:    2_000_000,
		Cache:        cache,
		Workload:     src,
	}
}

// TestServeWorkloadSource: a workload stream replaces the built-in
// pool — every issued request completes and the result reports the
// issued count as the offer.
func TestServeWorkloadSource(t *testing.T) {
	spec := workload.Spec{Model: workload.ModelZipf, Requests: 300, Groups: 16, MeanGap: 30}
	res := Serve(workloadServeConfig(t, 40, 1, spec))
	if res.Requests != spec.Requests {
		t.Fatalf("offered %d requests, want %d", res.Requests, spec.Requests)
	}
	if res.Completed != res.Requests {
		t.Fatalf("completed %d of %d (deadlocked=%v)", res.Completed, res.Requests, res.Deadlocked)
	}
	if res.CacheHitRate <= 0.5 {
		t.Fatalf("cache hit rate %.3f over a 16-group zipf pool, want > 0.5", res.CacheHitRate)
	}
}

// TestServeWorkloadDeterministic: the full result is identical at any
// worker count, for a plain and a bursty stream.
func TestServeWorkloadDeterministic(t *testing.T) {
	for _, arrivals := range workload.Arrivals() {
		spec := workload.Spec{Model: workload.ModelZipf, Arrivals: arrivals,
			Requests: 200, Groups: 16, MeanGap: 20}
		base := Serve(workloadServeConfig(t, 40, 1, spec))
		if got := Serve(workloadServeConfig(t, 40, 4, spec)); got != base {
			t.Fatalf("%s workers=4: result differs\n got %+v\nwant %+v", arrivals, got, base)
		}
	}
}

// TestForceAdmitBound: under a permanently hot stream whose every
// window exceeds the budget, no request waits beyond MaxDefer windows —
// the force-admit path drains the deferral queue instead of starving
// it.
func TestForceAdmitBound(t *testing.T) {
	m := topology.NewMesh2D(16, 16)
	cache := routing.NewPlanCache(0)
	const maxDefer = 8
	svc := New(Config{
		Router:   newRouter(t, m, cache),
		Budget:   1, // below any single plan: everything defers until forced
		MaxDefer: maxDefer,
	})

	// One hot multicast repeated: the degenerate limit of a zipf pool.
	hot := []topology.NodeID{17, 200, 93, 140}
	const n = 60
	for i := 0; i < n; i++ {
		if err := svc.Submit(uint64(i), 0, hot); err != nil {
			t.Fatal(err)
		}
	}
	admitWindow := make(map[uint64]int, n)
	window := 0
	for len(admitWindow) < n {
		if window > n {
			t.Fatalf("only %d of %d admitted after %d windows", len(admitWindow), n, window)
		}
		for _, a := range svc.CloseWindow() {
			admitWindow[a.ID] = window
		}
		window++
	}
	// The head of each window always admits; everything else defers
	// until the force-admit bound. No request may wait longer.
	for id, w := range admitWindow {
		if w > maxDefer {
			t.Errorf("request %d admitted in window %d, beyond the MaxDefer=%d bound", id, w, maxDefer)
		}
	}
	st := svc.Stats()
	if st.ForceAdmits == 0 {
		t.Error("no force-admits under a permanently over-budget stream")
	}
	if st.Admitted != n {
		t.Errorf("admitted %d, want %d", st.Admitted, n)
	}
}

// TestForceAdmitUnderServe: the same bound holds end-to-end — a hot
// zipf stream against a tiny budget completes every request with
// force-admits engaged.
func TestForceAdmitUnderServe(t *testing.T) {
	spec := workload.Spec{Model: workload.ModelZipf, Requests: 200, Groups: 4,
		ZipfS: 3, MeanGap: 4} // rank-1 group receives ~87% of requests
	cfg := workloadServeConfig(t, 1, 1, spec)
	res := Serve(cfg)
	if res.Completed != res.Requests {
		t.Fatalf("completed %d of %d (deadlocked=%v)", res.Completed, res.Requests, res.Deadlocked)
	}
	if res.ForceAdmits == 0 {
		t.Error("no force-admits under budget 1")
	}
	if res.Deferrals == 0 {
		t.Error("no deferrals under budget 1")
	}
}
