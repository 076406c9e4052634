// Package mcastsvc implements the "System Supported Multicast Service"
// the dissertation's Section 8.2 calls for: a set of multicast primitive
// operations — multicast, broadcast, barrier synchronization, and
// reduction — mapped onto the deadlock-free routing layer of Chapter 6,
// with per-operation cost accounting and protocol-level execution on the
// wormhole simulator.
//
// The service hides routing entirely: an application names a process
// group and a payload size; the service routes the underlying wormhole
// messages with a deadlock-free scheme, reports the channel traffic and
// contention-free latency of the operation, and can replay the protocol
// on a simulated network to measure its real completion time under the
// wormhole pipeline.
package mcastsvc

import (
	"fmt"
	"sort"

	"multicastnet/internal/core"
	"multicastnet/internal/heuristics"
	"multicastnet/internal/routing"
	"multicastnet/internal/topology"
	"multicastnet/internal/wormsim"
)

// planCacheSize bounds the per-service plan cache. Group communication
// is highly repetitive (the same barrier or allreduce routes recur every
// iteration), so even a small cache removes nearly all route derivation
// from the steady state.
const planCacheSize = 4096

// Config parameterizes a Service.
type Config struct {
	Topology topology.Topology
	// SchemeName selects the routing scheme by registry name (see
	// routing.Names()). It must name a deadlock-free scheme. Empty
	// selects dual-path, the dissertation's recommended default.
	SchemeName string
	// MessageBytes is the default payload size (default 128 bytes).
	MessageBytes int
}

// Service provides multicast primitives over one machine.
type Service struct {
	cfg    Config
	router routing.Router
}

// New validates the configuration and returns a Service. The routing
// scheme is resolved through the routing registry over the service's own
// precomputed topology state, and plans are memoized in a bounded
// concurrency-safe cache.
func New(cfg Config) (*Service, error) {
	if cfg.Topology == nil {
		return nil, fmt.Errorf("mcastsvc: config needs a topology")
	}
	if cfg.MessageBytes <= 0 {
		cfg.MessageBytes = 128
	}
	name := cfg.SchemeName
	if name == "" {
		name = "dual-path"
	}
	info, err := routing.Lookup(name)
	if err != nil {
		return nil, fmt.Errorf("mcastsvc: %w", err)
	}
	if !info.DeadlockFree {
		return nil, fmt.Errorf("mcastsvc: scheme %q is not deadlock-free", name)
	}
	st, err := routing.NewState(cfg.Topology)
	if err != nil {
		return nil, err
	}
	r, err := routing.New(name, st)
	if err != nil {
		return nil, fmt.Errorf("mcastsvc: %w", err)
	}
	return &Service{cfg: cfg, router: routing.Cached(r, routing.NewPlanCache(planCacheSize))}, nil
}

// SchemeName returns the registry name of the service's routing scheme.
func (s *Service) SchemeName() string { return s.router.Scheme() }

// Group is a process group; one process per node (Section 1.1's
// assumption that each process resides in a separate node).
type Group struct {
	members []topology.NodeID
}

// NewGroup validates and returns a group over the service's machine.
// Members must be distinct, in range, and at least two.
func (s *Service) NewGroup(members []topology.NodeID) (Group, error) {
	if len(members) < 2 {
		return Group{}, fmt.Errorf("mcastsvc: a group needs at least two members")
	}
	seen := make(map[topology.NodeID]bool, len(members))
	out := make([]topology.NodeID, len(members))
	for i, m := range members {
		if m < 0 || int(m) >= s.cfg.Topology.Nodes() {
			return Group{}, fmt.Errorf("mcastsvc: member %d out of range", m)
		}
		if seen[m] {
			return Group{}, fmt.Errorf("mcastsvc: duplicate member %d", m)
		}
		seen[m] = true
		out[i] = m
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return Group{members: out}, nil
}

// Members returns the group membership (sorted, caller must not modify).
func (g Group) Members() []topology.NodeID { return g.members }

// Size returns the number of members.
func (g Group) Size() int { return len(g.members) }

// Contains reports group membership.
func (g Group) Contains(v topology.NodeID) bool {
	for _, m := range g.members {
		if m == v {
			return true
		}
	}
	return false
}

// others returns, in a fresh slice, the members other than v in member
// order: the destinations of a multicast from v.
func (g Group) others(v topology.NodeID) []topology.NodeID {
	out := make([]topology.NodeID, 0, len(g.members))
	for _, m := range g.members {
		if m != v {
			out = append(out, m)
		}
	}
	return out
}

// Cost is the routing-level cost of one primitive operation.
type Cost struct {
	// TrafficChannels is the total number of channel transmissions.
	TrafficChannels int
	// MaxDistance is the worst source-to-destination hop count.
	MaxDistance int
	// LatencyMicros is the contention-free completion latency under the
	// wormhole pipeline (last destination's last flit).
	LatencyMicros float64
	// Messages is the number of wormhole messages the protocol sends.
	Messages int
}

// wormLatency is the contention-free wormhole latency for a route of the
// given hop count carrying bytes of payload.
func (s *Service) wormLatency(hops, bytes int) float64 {
	flits := bytes / wormsim.FlitBytes
	if flits < 1 {
		flits = 1
	}
	return float64(hops+flits-1) * wormsim.FlitMicros
}

// route plans k through the service's (cached) router.
func (s *Service) route(k core.MulticastSet) routing.Plan {
	return s.router.PlanSet(k)
}

// Multicast routes one source-to-group message and returns its cost. The
// source need not be a group member; members other than the source
// receive the payload.
func (s *Service) Multicast(source topology.NodeID, g Group, bytes int) (Cost, error) {
	if bytes <= 0 {
		bytes = s.cfg.MessageBytes
	}
	k, err := core.NewMulticastSet(s.cfg.Topology, source, g.others(source))
	if err != nil {
		return Cost{}, err
	}
	plan := s.route(k)
	return Cost{
		TrafficChannels: plan.Traffic(),
		MaxDistance:     plan.MaxDistance(),
		LatencyMicros:   s.wormLatency(plan.MaxDistance(), bytes),
		Messages:        plan.Messages(),
	}, nil
}

// Broadcast routes a message from source to every other node.
func (s *Service) Broadcast(source topology.NodeID, bytes int) (Cost, error) {
	all := make([]topology.NodeID, 0, s.cfg.Topology.Nodes())
	for v := topology.NodeID(0); int(v) < s.cfg.Topology.Nodes(); v++ {
		all = append(all, v)
	}
	g, err := s.NewGroup(all)
	if err != nil {
		return Cost{}, err
	}
	return s.Multicast(source, g, bytes)
}

// Barrier estimates the gather-release barrier of Section 1.2 [17]: every
// member sends a token to the coordinator (gather, unicasts), then the
// coordinator multicasts the release. The returned cost aggregates both
// phases; the latency is gather (slowest token) plus release.
func (s *Service) Barrier(coordinator topology.NodeID, g Group, tokenBytes int) (Cost, error) {
	if !g.Contains(coordinator) {
		return Cost{}, fmt.Errorf("mcastsvc: coordinator %d not in group", coordinator)
	}
	if tokenBytes <= 0 {
		tokenBytes = 8
	}
	var cost Cost
	worstGather := 0
	for _, m := range g.others(coordinator) {
		d := s.cfg.Topology.Distance(m, coordinator)
		cost.TrafficChannels += d
		cost.Messages++
		if d > worstGather {
			worstGather = d
		}
	}
	release, err := s.Multicast(coordinator, g, tokenBytes)
	if err != nil {
		return Cost{}, err
	}
	cost.TrafficChannels += release.TrafficChannels
	cost.Messages += release.Messages
	cost.MaxDistance = release.MaxDistance
	cost.LatencyMicros = s.wormLatency(worstGather, tokenBytes) + release.LatencyMicros
	return cost, nil
}

// Reduce estimates a combining reduction to the root along a gather tree:
// members send values toward the root over shortest paths; distinct
// unicast messages model the absence of combining hardware. Use
// ReduceBroadcast for the allreduce pattern of iterative solvers.
func (s *Service) Reduce(root topology.NodeID, g Group, bytes int) (Cost, error) {
	if !g.Contains(root) {
		return Cost{}, fmt.Errorf("mcastsvc: root %d not in group", root)
	}
	if bytes <= 0 {
		bytes = s.cfg.MessageBytes
	}
	var cost Cost
	worst := 0
	for _, m := range g.others(root) {
		d := s.cfg.Topology.Distance(m, root)
		cost.TrafficChannels += d
		cost.Messages++
		if d > worst {
			worst = d
		}
	}
	cost.MaxDistance = worst
	cost.LatencyMicros = s.wormLatency(worst, bytes)
	return cost, nil
}

// ReduceBroadcast estimates the allreduce of the Section 1.2 numerical
// scenarios: Reduce to the root followed by a multicast of the result.
func (s *Service) ReduceBroadcast(root topology.NodeID, g Group, bytes int) (Cost, error) {
	red, err := s.Reduce(root, g, bytes)
	if err != nil {
		return Cost{}, err
	}
	bc, err := s.Multicast(root, g, bytes)
	if err != nil {
		return Cost{}, err
	}
	return Cost{
		TrafficChannels: red.TrafficChannels + bc.TrafficChannels,
		MaxDistance:     max(red.MaxDistance, bc.MaxDistance),
		LatencyMicros:   red.LatencyMicros + bc.LatencyMicros,
		Messages:        red.Messages + bc.Messages,
	}, nil
}

// SteinerEstimate returns the channel traffic of routing one message from
// source to the group over the greedy Steiner tree of Section 5.2 — the
// near-optimal (but not deadlock-free) lower reference against which the
// service's path-based Multicast cost can be compared. The topology must
// support shortest-path regions (the paper's meshes and hypercubes all
// do). Each call borrows a pooled heuristics workspace, so concurrent
// requests are safe and steady-state calls allocate only the destination
// list.
func (s *Service) SteinerEstimate(source topology.NodeID, g Group) (int, error) {
	rt, ok := s.cfg.Topology.(heuristics.RegionTopology)
	if !ok {
		return 0, fmt.Errorf("mcastsvc: topology %T does not support Steiner estimates", s.cfg.Topology)
	}
	k, err := core.NewMulticastSet(s.cfg.Topology, source, g.others(source))
	if err != nil {
		return 0, err
	}
	ws := heuristics.AcquireWorkspace()
	defer heuristics.ReleaseWorkspace(ws)
	return ws.GreedySTCarried(rt, k), nil
}
