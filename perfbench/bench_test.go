package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestMetricsMatchBenchmarkJSON requires the workloads and metrics the
// program reports to be exactly those BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var spec struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloadNames[i])
		}
	}
	for _, c := range []struct {
		kind string
		json []named
		prog []metric
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.json) != len(c.prog) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", c.kind, len(c.json), len(c.prog))
			continue
		}
		for i, m := range c.json {
			if m.Name != c.prog[i].name || m.Unit != c.prog[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), program %s (%s)",
					c.kind, i, m.Name, m.Unit, c.prog[i].name, c.prog[i].unit)
			}
		}
	}
}

// TestEveryMetricEmitted runs every workload at a tiny size, untraced and
// traced, and requires a correct result that carries every metric of its
// mode with its unit, read back from the JSON line the benchmark prints.
func TestEveryMetricEmitted(t *testing.T) {
	for _, name := range workloadNames {
		w, ok := tinySize.bench(name)
		if !ok {
			t.Fatalf("no workload %q", name)
		}
		for _, trace := range []bool{false, true} {
			rep, err := measure(w, options{seed: 7, trace: trace})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			line, err := json.Marshal(resultOf(rep, trace))
			if err != nil {
				t.Fatal(err)
			}
			var got struct {
				Correct           bool
				Attempted, Failed int
				Metrics           map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal(line, &got); err != nil {
				t.Fatal(err)
			}
			if !got.Correct || got.Failed != 0 || got.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d problems=%q",
					name, trace, got.Correct, got.Failed, got.Attempted, rep.problems)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(got.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(got.Metrics), len(defs))
			}
			for _, m := range defs {
				v, ok := got.Metrics[m.name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", name, trace, m.name)
				case v.Unit != m.unit:
					t.Errorf("%s trace=%v: metric %s has unit %q, want %q", name, trace, m.name, v.Unit, m.unit)
				case !trace && v.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.name, v.Value)
				}
			}
		}
	}
}
