package mcastsvc

import (
	"errors"
	"fmt"

	"multicastnet/internal/core"
	"multicastnet/internal/fault"
	"multicastnet/internal/routing"
	"multicastnet/internal/topology"
	"multicastnet/internal/wormsim"
)

// RetryPolicy controls multicast retries under faults. Zero values
// select the defaults noted on each field.
type RetryPolicy struct {
	// MaxAttempts bounds delivery attempts per operation (default 3).
	MaxAttempts int
	// BackoffMicros is the fixed delay between attempts (default 50) —
	// the service-level analogue of a NACK/timeout turnaround.
	BackoffMicros float64
	// TimeoutMicros bounds one attempt's simulated execution (default
	// 20000); an attempt whose worms outlive it is abandoned and its
	// undelivered destinations are retried.
	TimeoutMicros float64
	// Check runs the wormsim invariant checker (flit conservation,
	// channel ownership, delivery accounting) throughout every attempt —
	// a testing aid; violations abort the operation with an error.
	Check bool
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.BackoffMicros <= 0 {
		p.BackoffMicros = 50
	}
	if p.TimeoutMicros <= 0 {
		p.TimeoutMicros = 20_000
	}
	return p
}

// DegradedOutcome is the per-operation accounting of one multicast
// executed under a fault plan.
type DegradedOutcome struct {
	// Attempts is the number of delivery attempts made (>= 1).
	Attempts int
	// Delivered, Lost, Unreachable partition the destination set:
	// delivered to the application, reachable but undelivered after all
	// retries, and severed from the source by the fault mask.
	Delivered, Lost, Unreachable int
	// FellBack and Repaired report degraded routing treatment on any
	// attempt (see fault.PlanStats).
	FellBack, Repaired bool
	// Partitioned reports that some attempt saw a typed partition error.
	Partitioned bool
	// WormsKilled counts worms dropped by mid-run fault activations
	// across all attempts.
	WormsKilled int
	// CompletionMicros is the operation's total wall time on the
	// operation clock: simulated attempt time plus retry backoffs.
	CompletionMicros float64
}

// Degraded reports whether the operation needed any degraded-mode
// treatment at all.
func (o DegradedOutcome) Degraded() bool {
	return o.FellBack || o.Repaired || o.Partitioned ||
		o.Lost > 0 || o.Unreachable > 0 || o.WormsKilled > 0 || o.Attempts > 1
}

// DeliveryRatio returns delivered / (delivered + lost + unreachable).
func (o DegradedOutcome) DeliveryRatio() float64 {
	total := o.Delivered + o.Lost + o.Unreachable
	if total == 0 {
		return 1
	}
	return float64(o.Delivered) / float64(total)
}

// MulticastUnderFaults executes one source-to-group multicast against a
// timed fault plan: one delta-driven live router (fault.LiveRouter) is
// built for the whole operation and advanced — in O(|new events|) per
// attempt, never a full rebuild — to the fault mask at the current
// operation time; each attempt routes the still-undelivered members over
// it, replays the plan on a wormhole network whose failed channels kill
// in-flight worms, and activates further fault events mid-flight as the
// operation clock crosses them. Destinations lost to mid-run kills or
// attempt timeouts are retried after a backoff until the policy's
// attempt budget runs out; destinations the mask has severed from the
// source are dropped immediately as unreachable. The fault plan's cycle
// 0 is the operation's start.
func (s *Service) MulticastUnderFaults(source topology.NodeID, g Group, bytes int,
	fp *fault.Plan, pol RetryPolicy) (DegradedOutcome, error) {
	if bytes <= 0 {
		bytes = s.cfg.MessageBytes
	}
	pol = pol.withDefaults()
	if fp == nil {
		fp = fault.NewStaticPlan(s.cfg.Topology, nil)
	}
	pending := make([]topology.NodeID, 0, g.Size())
	for _, m := range g.members {
		if m != source {
			pending = append(pending, m)
		}
	}
	if len(pending) == 0 {
		return DegradedOutcome{Attempts: 1}, fmt.Errorf("mcastsvc: source %d is the only member", source)
	}
	flitUs := s.flitMicros()
	flits := bytes / s.cfg.FlitBytes
	if flits < 1 {
		flits = 1
	}
	timeoutCycles := int64(pol.TimeoutMicros / flitUs)
	backoffCycles := int64(pol.BackoffMicros / flitUs)
	events := fp.Events()

	// One live router over the service's healthy routing state serves
	// every attempt: each retry advances it by the delta of newly
	// activated events instead of rebuilding masked state from scratch.
	// It plans without the service plan cache: its plans and their
	// degraded-mode accounting belong to this operation's fault plan, and
	// must not be served to another operation.
	lr, err := fault.NewLiveRouter(s.router.Scheme(), s.router.State(), routing.Options{})
	if err != nil {
		return DegradedOutcome{}, err
	}
	applied := 0 // events folded into the live mask so far

	var out DegradedOutcome
	clock := int64(0) // operation clock in flit cycles
	for attempt := 1; attempt <= pol.MaxAttempts && len(pending) > 0; attempt++ {
		out.Attempts = attempt
		var d fault.Delta
		for applied < len(events) && events[applied].Cycle <= clock {
			d.Fail = append(d.Fail, events[applied])
			applied++
		}
		if !d.Empty() {
			lr.ApplyDelta(d)
		}
		k, err := core.NewMulticastSet(s.cfg.Topology, source, pending)
		if err != nil {
			return out, err
		}
		plan, stats, perr := lr.PlanDegraded(k)
		out.FellBack = out.FellBack || stats.FellBack
		out.Repaired = out.Repaired || stats.Repaired
		severed := make(map[topology.NodeID]bool)
		if perr != nil {
			var pe *fault.PartitionError
			if !errors.As(perr, &pe) {
				return out, perr
			}
			out.Partitioned = true
			for _, d := range pe.Unreachable {
				severed[d] = true
			}
		}

		// Replay the attempt: failed hardware is dead from the start,
		// later events activate as the operation clock crosses them.
		net := wormsim.NewNetwork(s.cfg.Topology)
		net.FailWhere(lr.Mask().ChannelDead)
		delivered := make(map[topology.NodeID]bool)
		net.OnDelivery(func(d topology.NodeID, _ int64) { delivered[d] = true })
		net.InjectFlatTag(routing.Flatten(s.cfg.Topology, plan), flits, 0)
		next := applied // events beyond the live mask activate mid-flight
		base := clock
		steps := 0
		for net.ActiveWorms() > 0 && net.Cycle() < timeoutCycles {
			for next < len(events) && events[next].Cycle <= base+net.Cycle() {
				e := events[next]
				next++
				net.FailWhere(e.Matches)
			}
			if !net.Step() && net.DetectDeadlock() != nil {
				// Cannot happen for the service's deadlock-free schemes;
				// abandon the attempt rather than spin to the timeout.
				break
			}
			if steps++; pol.Check && steps%128 == 0 {
				if cerr := net.CheckInvariants(); cerr != nil {
					return out, cerr
				}
			}
		}
		if pol.Check {
			if cerr := net.CheckInvariants(); cerr != nil {
				return out, cerr
			}
		}
		out.WormsKilled += net.KilledWorms()
		clock = base + net.Cycle()

		var still []topology.NodeID
		for _, d := range pending {
			switch {
			case delivered[d]:
				out.Delivered++
			case severed[d]:
				out.Unreachable++
			default:
				still = append(still, d)
			}
		}
		pending = still
		if len(pending) > 0 && attempt < pol.MaxAttempts {
			clock += backoffCycles
		}
	}
	out.Lost = len(pending)
	out.CompletionMicros = float64(clock) * flitUs
	return out, nil
}
