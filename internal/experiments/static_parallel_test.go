package experiments

import (
	"strings"
	"testing"

	"multicastnet/internal/stats"
)

// TestStaticParallelDeterminism is the static-study counterpart of
// TestSweepParallelDeterminism: the static figures and the extension
// sweep must render byte-identically at any worker count. The static
// sweeps guarantee this by construction — workloads are pregenerated
// from one sequential RNG stream, workers only fill disjoint integer
// slices, and the float fold runs serially in the original replicate
// order.
func TestStaticParallelDeterminism(t *testing.T) {
	render := func(workers int) string {
		o := Options{Reps: 25, Seed: 1990, Parallel: workers}
		var sb strings.Builder
		for _, fig := range []*stats.Figure{
			Fig71SortedMPMesh(o),
			Fig74GreedySTCube(o),
			Fig75MTMesh(o),
			ExtVirtualChannelsStatic(o),
		} {
			if err := fig.WriteTable(&sb); err != nil {
				t.Fatal(err)
			}
			if err := fig.WriteCSV(&sb); err != nil {
				t.Fatal(err)
			}
		}
		return sb.String()
	}
	seq := render(1)
	for _, workers := range []int{4, 8} {
		if par := render(workers); par != seq {
			t.Fatalf("static output at %d workers diverged from sequential", workers)
		}
	}
	if !strings.Contains(seq, "greedy") {
		t.Fatalf("rendered output looks empty:\n%s", seq[:min(400, len(seq))])
	}
}
