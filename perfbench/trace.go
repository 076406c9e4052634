package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"multicastnet/internal/stats"
)

// Span names: one per public function of a layer the benchmark calls.
const (
	spanTopologyBuild = "topology.build"
	spanLabelingBuild = "labeling.build"
	spanStateBuild    = "routing.state_build"
	spanRecord        = "workload.record"
	spanNext          = "workload.next"
	spanRoute         = "routing.route"
	spanPlan          = "routing.plan"
	spanSubmit        = "sched.submit"
	spanCloseWindow   = "sched.close_window"
	spanInject        = "wormsim.inject"
	spanStep          = "wormsim.step"
	spanFastForward   = "wormsim.fast_forward"
	spanRun           = "wormsim.run"
	spanGreedyST      = "heuristics.greedyst"
	spanLEN           = "heuristics.len"
	spanSortedMP      = "heuristics.sortedmp"
	spanMT            = "heuristics.mt"
	spanBaseline      = "heuristics.baseline"
)

// span is one call into a layer: start and end in nanoseconds since the
// tracer's epoch, the enclosing span (-1 for none) and the request it
// served (-1 when it serves no single request).
type span struct {
	name       string
	start, end int64
	parent     int32
	req        int64
}

// tracer records spans in memory. A nil *tracer records nothing, so the
// untraced paths pay one nil check per call.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int32 // open spans, innermost last
	phase int     // index of the first span of the timed phase
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span nested in the innermost open one and returns its id.
func (t *tracer) begin(name string, req int64) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, start: int64(time.Since(t.epoch)), parent: parent, req: req})
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	t.spans[id].end = int64(time.Since(t.epoch))
	t.open = t.open[:len(t.open)-1]
}

// markPhase starts the timed phase: the explained fraction accounts for
// the spans recorded from here on.
func (t *tracer) markPhase() {
	if t != nil {
		t.phase = len(t.spans)
	}
}

// spanTotals aggregates a traced run by span name.
type spanTotals struct {
	total map[string]float64   // inclusive seconds
	self  map[string]float64   // seconds minus the time of child spans
	count map[string]float64   // calls
	durUs map[string][]float64 // sorted inclusive microseconds, for percentiles
	// phaseSelf is the self time of every span of the timed phase: the
	// part of the phase's wall time the layers account for.
	phaseSelf float64
}

// percentileNames are the spans whose duration percentiles are reported.
var percentileNames = map[string]bool{spanPlan: true, spanCloseWindow: true}

func (t *tracer) totals() spanTotals {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		d := s.end - s.start
		self[i] += d
		if s.parent >= 0 {
			self[s.parent] -= d
		}
	}
	a := spanTotals{
		total: map[string]float64{},
		self:  map[string]float64{},
		count: map[string]float64{},
		durUs: map[string][]float64{},
	}
	for i, s := range t.spans {
		d := float64(s.end-s.start) / 1e9
		a.total[s.name] += d
		a.self[s.name] += float64(self[i]) / 1e9
		a.count[s.name]++
		if percentileNames[s.name] {
			a.durUs[s.name] = append(a.durUs[s.name], d*1e6)
		}
		if i >= t.phase {
			a.phaseSelf += float64(self[i]) / 1e9
		}
	}
	for _, d := range a.durUs {
		sort.Float64s(d)
	}
	return a
}

// percentileUs returns the p-quantile of the named span's durations in
// microseconds, or 0 when the span never ran.
func (a spanTotals) percentileUs(name string, p float64) float64 {
	d := a.durUs[name]
	if len(d) == 0 {
		return 0
	}
	return stats.Percentile(d, p)
}

// write dumps every span as one tab-separated line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tname\tstart_ns\tend_ns\tparent\treq")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\t%d\n", i, s.name, s.start, s.end, s.parent, s.req)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
