package mcastsvc

import (
	"fmt"

	"multicastnet/internal/core"
	"multicastnet/internal/routing"
	"multicastnet/internal/topology"
	"multicastnet/internal/wormsim"
)

// Measured is the outcome of executing a primitive on the wormhole
// simulator rather than estimating it: real pipeline timing including any
// self-contention between the protocol's own messages.
type Measured struct {
	// CompletionMicros is the time from protocol start to the last
	// delivery.
	CompletionMicros float64
	// Phases records the completion time of each protocol phase.
	Phases []float64
	// Deadlocked reports a blocked protocol (never happens for the
	// service's deadlock-free schemes; surfaced for honesty).
	Deadlocked bool
}

// phase is one set of concurrently injected messages; a phase starts only
// when the previous one has fully drained (the protocol-level
// synchronization of a barrier or reduction).
type phase struct {
	// one multicast set per concurrently transmitting source
	sets []core.MulticastSet
}

// runPhases executes the phases on a fresh simulated network.
func (s *Service) runPhases(phases []phase, bytes int) (Measured, error) {
	net := wormsim.NewNetwork(s.cfg.Topology)
	flits := bytes / s.cfg.FlitBytes
	if flits < 1 {
		flits = 1
	}
	var out Measured
	var lastProgress int64
	var fl routing.Flattener
	var fp routing.FlatPlan
	for _, ph := range phases {
		start := net.Cycle()
		for _, k := range ph.sets {
			net.InjectFlatTag(fl.Flatten(&fp, s.route(k)), flits, 0)
		}
		for net.ActiveWorms() > 0 {
			if net.Step() {
				lastProgress = net.Cycle()
			} else if net.DetectDeadlock() != nil ||
				net.Cycle()-lastProgress > int64(20*(flits+s.cfg.Topology.Nodes())) {
				out.Deadlocked = true
				out.CompletionMicros = float64(net.Cycle()) * s.flitMicros()
				return out, nil
			}
		}
		out.Phases = append(out.Phases, float64(net.Cycle()-start)*s.flitMicros())
	}
	out.CompletionMicros = float64(net.Cycle()) * s.flitMicros()
	return out, nil
}

// SimulateMulticast executes one multicast on the simulator.
func (s *Service) SimulateMulticast(source topology.NodeID, g Group, bytes int) (Measured, error) {
	if bytes <= 0 {
		bytes = s.cfg.MessageBytes
	}
	dests := make([]topology.NodeID, 0, g.Size())
	for _, m := range g.members {
		if m != source {
			dests = append(dests, m)
		}
	}
	k, err := core.NewMulticastSet(s.cfg.Topology, source, dests)
	if err != nil {
		return Measured{}, err
	}
	return s.runPhases([]phase{{sets: []core.MulticastSet{k}}}, bytes)
}

// SimulateBarrier executes the two-phase barrier protocol on the
// simulator: all members' gather tokens race to the coordinator
// concurrently (phase 1), then the release multicast goes out (phase 2).
// The gather phase exhibits real convergecast contention near the
// coordinator, which the closed-form Barrier estimate ignores.
func (s *Service) SimulateBarrier(coordinator topology.NodeID, g Group, tokenBytes int) (Measured, error) {
	if !g.Contains(coordinator) {
		return Measured{}, fmt.Errorf("mcastsvc: coordinator %d not in group", coordinator)
	}
	if tokenBytes <= 0 {
		tokenBytes = 8
	}
	var gather phase
	for _, m := range g.members {
		if m == coordinator {
			continue
		}
		k, err := core.NewMulticastSet(s.cfg.Topology, m, []topology.NodeID{coordinator})
		if err != nil {
			return Measured{}, err
		}
		gather.sets = append(gather.sets, k)
	}
	dests := make([]topology.NodeID, 0, g.Size()-1)
	for _, m := range g.members {
		if m != coordinator {
			dests = append(dests, m)
		}
	}
	releaseSet, err := core.NewMulticastSet(s.cfg.Topology, coordinator, dests)
	if err != nil {
		return Measured{}, err
	}
	return s.runPhases([]phase{gather, {sets: []core.MulticastSet{releaseSet}}}, tokenBytes)
}

// SimulateAllReduce executes reduce-then-broadcast on the simulator.
func (s *Service) SimulateAllReduce(root topology.NodeID, g Group, bytes int) (Measured, error) {
	if !g.Contains(root) {
		return Measured{}, fmt.Errorf("mcastsvc: root %d not in group", root)
	}
	if bytes <= 0 {
		bytes = s.cfg.MessageBytes
	}
	var reduce phase
	for _, m := range g.members {
		if m == root {
			continue
		}
		k, err := core.NewMulticastSet(s.cfg.Topology, m, []topology.NodeID{root})
		if err != nil {
			return Measured{}, err
		}
		reduce.sets = append(reduce.sets, k)
	}
	dests := make([]topology.NodeID, 0, g.Size()-1)
	for _, m := range g.members {
		if m != root {
			dests = append(dests, m)
		}
	}
	bcastSet, err := core.NewMulticastSet(s.cfg.Topology, root, dests)
	if err != nil {
		return Measured{}, err
	}
	return s.runPhases([]phase{reduce, {sets: []core.MulticastSet{bcastSet}}}, bytes)
}
