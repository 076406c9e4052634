package fault

import (
	"errors"
	"testing"

	"multicastnet/internal/core"
	"multicastnet/internal/routing"
	"multicastnet/internal/topology"
	"multicastnet/internal/wormsim"
)

// TestPlanDeltas: the delta stream partitions the plan's events by
// activation cycle, in order, with no repairs.
func TestPlanDeltas(t *testing.T) {
	m := topology.NewMesh2D(8, 8)
	fp := NewPlan(m, Spec{Links: 5, Nodes: 2, VCs: 3, Horizon: 10_000, Seed: 7})
	deltas := PlanDeltas(fp)
	total := 0
	for i, td := range deltas {
		if len(td.Delta.Repair) != 0 {
			t.Fatalf("delta %d carries repairs", i)
		}
		if i > 0 && td.Cycle <= deltas[i-1].Cycle {
			t.Fatalf("delta cycles not strictly increasing at %d", i)
		}
		for _, e := range td.Delta.Fail {
			if e.Cycle != td.Cycle {
				t.Fatalf("event %v grouped under cycle %d", e, td.Cycle)
			}
		}
		total += len(td.Delta.Fail)
	}
	if total != len(fp.Events()) {
		t.Fatalf("deltas carry %d events, plan has %d", total, len(fp.Events()))
	}
}

func TestSimScheduleRejectsRepairs(t *testing.T) {
	m := topology.NewMesh2D(4, 4)
	st, err := routing.NewState(m)
	if err != nil {
		t.Fatal(err)
	}
	lr, err := NewLiveRouter("dual-path", st, routing.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := Event{Kind: LinkFault, A: 0, B: 1}
	_, err = SimSchedule(lr, []TimedDelta{{Cycle: 10, Delta: Delta{Repair: []Event{e}}}})
	if err == nil {
		t.Fatal("repair delta accepted by the fail-only simulator bridge")
	}
}

// TestSimScheduleMatchesStaticSchedule is the bridge's equivalence
// anchor: a full dynamic wormsim run whose mid-run fault epochs re-plan
// through ONE delta-advanced LiveRouter must be field-for-field identical
// to the same run where every epoch's route is a fresh router built from
// that epoch's cumulative mask — the manual way of wiring
// wormsim.ScheduledFault.
func TestSimScheduleMatchesStaticSchedule(t *testing.T) {
	m := topology.NewMesh2D(8, 8)
	st, err := routing.NewState(m)
	if err != nil {
		t.Fatal(err)
	}
	fp := NewPlan(m, Spec{Links: 4, Nodes: 1, VCs: 2, Horizon: 20_000, Seed: 1990})
	deltas := PlanDeltas(fp)
	if len(deltas) < 2 {
		t.Fatalf("plan yields %d epochs; want a multi-epoch schedule", len(deltas))
	}
	const scheme = "dual-path"

	baseCfg := wormsim.Config{
		Topology:               m,
		MeanInterarrivalMicros: 300,
		AvgDests:               8,
		Seed:                   23,
		WarmupDeliveries:       100,
		BatchSize:              100,
		MinBatches:             5,
		MaxCycles:              60_000,
		Check:                  true,
	}

	runLive := func() wormsim.Result {
		lr, err := NewLiveRouter(scheme, st, routing.Options{})
		if err != nil {
			t.Fatal(err)
		}
		sched, err := SimSchedule(lr, deltas)
		if err != nil {
			t.Fatal(err)
		}
		cfg := baseCfg
		cfg.Route = wormsim.RouteFuncOf(lr)
		cfg.Faults = sched
		res, err := wormsim.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Traffic past the last epoch advanced the router through the
		// whole stream.
		if lr.Epoch() != uint64(len(deltas)) {
			t.Fatalf("live router absorbed %d deltas, schedule has %d", lr.Epoch(), len(deltas))
		}
		return res
	}

	staticRoute := func(events []Event) wormsim.RouteFunc {
		dr, err := routerFor(scheme, st, events)
		if err != nil {
			t.Fatal(err)
		}
		return func(k core.MulticastSet) wormsim.Injection {
			if nodeDeadIn(events, k.Source) {
				return wormsim.Injection{}
			}
			plan, _, err := dr.PlanDegraded(k)
			if err != nil && !errors.Is(err, ErrPartitioned) {
				return wormsim.Injection{}
			}
			return wormsim.Injection{Paths: plan.Paths, Trees: plan.Trees}
		}
	}
	runStatic := func() wormsim.Result {
		cfg := baseCfg
		cfg.Route = staticRoute(nil)
		for _, td := range deltas {
			var active []Event
			for _, e := range fp.Events() {
				if e.Cycle <= td.Cycle {
					active = append(active, e)
				}
			}
			cfg.Faults = append(cfg.Faults, wormsim.ScheduledFault{
				Cycle: td.Cycle,
				Dead:  deadPredicate(td.Delta.Fail),
				Route: staticRoute(active),
			})
		}
		res, err := wormsim.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	live := runLive()
	static := runStatic()
	if live != static {
		t.Fatalf("bridge run diverged from static-schedule run:\nlive:   %+v\nstatic: %+v", live, static)
	}
	if live.WormsKilled == 0 {
		t.Fatalf("schedule did not bite (no worms killed): %+v", live)
	}
	// Determinism: a second bridge run reproduces the first exactly.
	if again := runLive(); again != live {
		t.Fatalf("bridge runs diverged:\nfirst:  %+v\nsecond: %+v", live, again)
	}
}
