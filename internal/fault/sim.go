package fault

import (
	"fmt"

	"multicastnet/internal/core"
	"multicastnet/internal/dfr"
	"multicastnet/internal/wormsim"
)

// TimedDelta is one epoch boundary of a delta stream: the batch of
// events to absorb when the simulation clock reaches Cycle.
type TimedDelta struct {
	Cycle int64
	Delta Delta
}

// PlanDeltas lowers a timed fault plan into its delta stream: events are
// grouped by activation cycle, one fail-only delta per epoch boundary.
// It is the canonical input for SimSchedule.
func PlanDeltas(fp *Plan) []TimedDelta {
	var out []TimedDelta
	for _, e := range fp.Events() {
		if len(out) == 0 || out[len(out)-1].Cycle != e.Cycle {
			out = append(out, TimedDelta{Cycle: e.Cycle})
		}
		last := &out[len(out)-1]
		last.Delta.Fail = append(last.Delta.Fail, e)
	}
	return out
}

// SimSchedule lowers a fail-only timed delta stream onto wormsim's
// mid-run fault activation, routed through ONE live router: each
// scheduled epoch kills the delta's channels inside the engine, and the
// re-plan closure advances lr by the same delta — in O(|delta|), never a
// rebuild — before planning the still-pending traffic. Deltas apply
// lazily as the driver activates epochs, so lr must start at the stream's
// beginning and must not be advanced elsewhere during the run. The run's
// epoch-0 route is wormsim.RouteFuncOf(lr). Every route plans through
// LiveRouter.PlanSet, so severed destinations are not injected and a
// dead source injects nothing.
//
// Repair deltas are rejected: the wormhole engine's faults are permanent
// (FailWhere has no inverse), matching the paper's static-fault model.
// Use LiveRouter.ApplyDelta directly for repair churn outside the
// simulator.
func SimSchedule(lr *LiveRouter, deltas []TimedDelta) ([]wormsim.ScheduledFault, error) {
	for i, td := range deltas {
		if len(td.Delta.Repair) > 0 {
			return nil, fmt.Errorf("fault: SimSchedule delta %d at cycle %d carries %d repair events; the simulator cannot resurrect channels",
				i, td.Cycle, len(td.Delta.Repair))
		}
		if i > 0 && td.Cycle < deltas[i-1].Cycle {
			return nil, fmt.Errorf("fault: SimSchedule deltas out of order at %d (cycle %d after %d)",
				i, td.Cycle, deltas[i-1].Cycle)
		}
	}
	// The driver activates epochs in order but only calls the CURRENT
	// route closure; a shared cursor lets each closure fold in every
	// delta up to its own epoch, so zero-traffic epochs are never lost.
	route := wormsim.RouteFuncOf(lr)
	applied := 0
	out := make([]wormsim.ScheduledFault, 0, len(deltas))
	for i, td := range deltas {
		i, td := i, td
		out = append(out, wormsim.ScheduledFault{
			Cycle: td.Cycle,
			Dead:  deadPredicate(td.Delta.Fail),
			Route: func(k core.MulticastSet) wormsim.Injection {
				for applied <= i {
					lr.ApplyDelta(deltas[applied].Delta)
					applied++
				}
				return route(k)
			},
		})
	}
	return out, nil
}

// deadPredicate ORs the fail events' channel matches.
func deadPredicate(fails []Event) func(dfr.Channel) bool {
	if len(fails) == 0 {
		return nil
	}
	return func(c dfr.Channel) bool {
		for _, e := range fails {
			if e.Matches(c) {
				return true
			}
		}
		return false
	}
}
