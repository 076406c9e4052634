// Package allocs pins exact allocation counts in tests.
// testing.AllocsPerRun truncates its per-run average to an integer, so a
// call that allocates once in every few runs passes a pin of 0. Exact
// counts every heap object over Runs calls instead and compares the
// total.
//
//	allocs.Exact(t, "warm plan", 2, func(i int) { plan(sets[i%len(sets)]) })
package allocs

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// Runs is how many calls Exact measures.
const Runs = 1000

// Exact fails t unless fn, called with i = 0 .. Runs-1, allocates
// exactly per heap objects a call: per·Runs in total. It makes one
// unmeasured pass over the same indices first, so that the capacities
// the calls grow are warm, and measures at GOMAXPROCS 1, as
// testing.AllocsPerRun does. The collector is off while it counts: a
// collection can allocate in the runtime (its first starts the worker
// goroutines; under the race detector others do too), which is not fn's
// doing.
func Exact(t testing.TB, what string, per uint64, fn func(i int)) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for i := 0; i < Runs; i++ {
		fn(i)
	}
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < Runs; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&after)
	if got := after.Mallocs - before.Mallocs; got != per*Runs {
		t.Errorf("%s: %d allocations in %d calls, want exactly %d a call (%d)", what, got, Runs, per, per*Runs)
	}
}
