package experiments

import (
	"bytes"
	"testing"
)

// serveTestOptions is a reduced serving study: fewer requests, two load
// points, one window point. Everything the committed study pins is still
// exercised — both policies over paired streams, the load and window
// sweeps, and the per-point table.
func serveTestOptions() ServeOptions {
	o := ServeQuick()
	o.Seed = 7
	o.Requests = 200
	o.Groups = 64
	o.Loads = []float64{4, 1}
	o.Windows = []int64{128}
	o.MaxCycles = 1_000_000
	return o
}

// TestServeStudySmall runs the full serving-study machinery reduced and
// pins its invariants: every offered request completes under both
// policies, the congestion budget actually defers under load, and every
// output is byte-identical across sweep workers and planner workers.
func TestServeStudySmall(t *testing.T) {
	o := serveTestOptions()
	o.Parallel = 1
	serial := ServeStudy(o)

	for _, f := range []struct {
		name   string
		series int
	}{
		{"throughput", len(serial.Throughput.Series)},
		{"p99", len(serial.P99.Series)},
		{"window throughput", len(serial.WindowThroughput.Series)},
		{"window p99", len(serial.WindowP99.Series)},
	} {
		if f.series != 2 {
			t.Errorf("%s figure has %d series, want 2 (fifo+sched)", f.name, f.series)
		}
	}
	if got, want := len(serial.Points), 2*(len(o.Loads)+len(o.Windows)); got != want {
		t.Fatalf("points = %d, want %d", got, want)
	}
	sawDefer, sawHits := false, false
	for _, p := range serial.Points {
		if p.Completed != p.Requests {
			t.Errorf("%s ia=%g w=%d: completed %d of %d", p.Policy,
				p.MeanInterarrival, p.WindowCycles, p.Completed, p.Requests)
		}
		if p.Deadlocked {
			t.Errorf("%s ia=%g: deadlocked", p.Policy, p.MeanInterarrival)
		}
		if p.CacheLookups == 0 {
			t.Errorf("%s ia=%g: no cache lookups", p.Policy, p.MeanInterarrival)
		}
		// At high load a whole run can fit in one window, where in-window
		// dedup leaves zero cache hits; only multi-window runs must hit.
		if p.CacheHitRate > 0 {
			sawHits = true
		}
		switch p.Policy {
		case "fifo":
			if p.Deferrals != 0 || p.ForceAdmits != 0 {
				t.Errorf("fifo ia=%g deferred: %+v", p.MeanInterarrival, p)
			}
		case "sched":
			if p.Deferrals > 0 {
				sawDefer = true
			}
		default:
			t.Errorf("unknown policy %q", p.Policy)
		}
	}
	if !sawDefer {
		t.Error("sched policy never deferred a request at any load")
	}
	if !sawHits {
		t.Errorf("no point had any cache hits over a %d-group pool", o.Groups)
	}

	// Same study under the sweep worker pool and parallel planners:
	// figures and points must be byte-identical.
	o.Parallel = 4
	par := ServeStudy(o)
	for _, f := range []struct {
		name string
		a, b []byte
	}{
		{"throughput", figCSV(t, serial.Throughput), figCSV(t, par.Throughput)},
		{"p99", figCSV(t, serial.P99), figCSV(t, par.P99)},
		{"window throughput", figCSV(t, serial.WindowThroughput), figCSV(t, par.WindowThroughput)},
		{"window p99", figCSV(t, serial.WindowP99), figCSV(t, par.WindowP99)},
	} {
		if !bytes.Equal(f.a, f.b) {
			t.Errorf("%s figure diverges between parallel=1 and parallel=4:\n%s\n---\n%s",
				f.name, f.a, f.b)
		}
	}
	for i := range serial.Points {
		if serial.Points[i] != par.Points[i] {
			t.Errorf("point %d diverges:\nserial %+v\npar    %+v",
				i, serial.Points[i], par.Points[i])
		}
	}
}
