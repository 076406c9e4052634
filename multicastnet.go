// Package multicastnet is a Go implementation of the multicast
// communication system of Xiaola Lin's dissertation "Multicast
// Communication in Multicomputer Networks" (Michigan State University,
// 1991; ICPP 1990): multicast routing models for wormhole-switched
// multicomputer networks, the Chapter 5 heuristic routing algorithms, the
// Chapter 6 deadlock-free multicast wormhole routing schemes, and the
// flit-level network simulator behind the Chapter 7 performance study.
//
// The package is a facade over the implementation packages:
//
//	topology    host graphs (2D/3D mesh, hypercube, k-ary n-cube)
//	labeling    Hamiltonian-path labelings and Hamilton cycles
//	core        multicast sets, the MP and MC models, and routing function R
//	heuristics  sorted MP/MC, greedy ST, X-first and divided-greedy MT, baselines
//	dfr         deadlock-free dual-path/multi-path/fixed-path/tree routing, CDG checks
//	routing     the scheme registry every Chapter 6 route is picked from
//	wormsim     flit-clock wormhole network simulator
//	experiments the Chapter 7 tables and figures
//
// The System type bundles a topology with its canonical labeling and
// Hamilton cycle and exposes every routing algorithm with one call; see
// examples/quickstart.
package multicastnet

import (
	"fmt"

	"multicastnet/internal/core"
	"multicastnet/internal/dfr"
	"multicastnet/internal/heuristics"
	"multicastnet/internal/labeling"
	"multicastnet/internal/mcastsvc"
	"multicastnet/internal/routing"
	"multicastnet/internal/topology"
	"multicastnet/internal/wormsim"
)

// Re-exported fundamental types.
type (
	// NodeID identifies a node of a topology.
	NodeID = topology.NodeID
	// Topology is the host-graph interface.
	Topology = topology.Topology
	// Mesh2D is the two-dimensional mesh.
	Mesh2D = topology.Mesh2D
	// Mesh3D is the three-dimensional mesh.
	Mesh3D = topology.Mesh3D
	// Hypercube is the binary n-cube.
	Hypercube = topology.Hypercube
	// KAryNCube is the general k-ary n-cube.
	KAryNCube = topology.KAryNCube

	// MulticastSet is a source plus destination set.
	MulticastSet = core.MulticastSet
	// Path is a multicast path (Definition 3.1).
	Path = core.Path
	// Cycle is a multicast cycle (Definition 3.2).
	Cycle = core.Cycle
	// Plan is one routed multicast of a Chapter 6 scheme: its path
	// routes, its tree routes, or both.
	Plan = routing.Plan
	// Channel is a unidirectional network channel.
	Channel = dfr.Channel
	// STResult is a multicast tree routing pattern with traffic and
	// delivery metrics.
	STResult = heuristics.STResult

	// Service is the system-supported multicast service of Section 8.2:
	// multicast, broadcast, barrier, and reduction primitives over the
	// deadlock-free routing layer.
	Service = mcastsvc.Service
	// ServiceConfig parameterizes NewService.
	ServiceConfig = mcastsvc.Config
	// Group is a process group for the service's primitives.
	Group = mcastsvc.Group
	// Cost is the routing-level cost of one service primitive.
	Cost = mcastsvc.Cost
	// Measured is a simulator-measured primitive execution.
	Measured = mcastsvc.Measured

	// SimConfig configures a dynamic wormhole simulation.
	SimConfig = wormsim.Config
	// SimResult is the outcome of a dynamic simulation.
	SimResult = wormsim.Result
	// RouteFunc routes multicast sets for the simulator.
	RouteFunc = wormsim.RouteFunc
	// LiveRouteFunc routes with sight of live channel occupancy.
	LiveRouteFunc = wormsim.LiveRouteFunc
	// RouterOptions parameterize System.Route and System.RouteFunc; the
	// zero value selects every scheme's defaults.
	RouterOptions = routing.Options
	// Injection is a routed multicast handed to the simulator.
	Injection = wormsim.Injection
)

// NewMesh2D returns a width x height mesh topology.
func NewMesh2D(width, height int) *Mesh2D { return topology.NewMesh2D(width, height) }

// NewMesh3D returns a 3D mesh topology.
func NewMesh3D(w, h, d int) *Mesh3D { return topology.NewMesh3D(w, h, d) }

// NewHypercube returns an n-cube topology.
func NewHypercube(n int) *Hypercube { return topology.NewHypercube(n) }

// NewKAryNCube returns a k-ary n-cube topology.
func NewKAryNCube(k, n int) *KAryNCube { return topology.NewKAryNCube(k, n) }

// NewMulticastSet validates and builds a multicast set over t.
func NewMulticastSet(t Topology, source NodeID, dests []NodeID) (MulticastSet, error) {
	return core.NewMulticastSet(t, source, dests)
}

// Simulate runs a dynamic wormhole simulation (Section 7.2).
func Simulate(cfg SimConfig) (SimResult, error) { return wormsim.Run(cfg) }

// NewService builds the multicast service over a topology.
func NewService(cfg ServiceConfig) (*Service, error) { return mcastsvc.New(cfg) }

// System bundles a topology with its precomputed routing state under the
// canonical Hamiltonian labeling (Section 6.2.2 for meshes, 6.3 for
// hypercubes) and its Hamilton cycle (Section 5.1), giving one handle on
// every routing algorithm of the dissertation: the Chapter 5 heuristics
// by method, the Chapter 6 schemes by registry name through Route.
// Meshes and hypercubes are supported.
type System struct {
	st  *routing.State
	ham *labeling.HamiltonCycle // nil when the topology has none
}

// newSystem builds a System over t with its canonical labeling.
func newSystem(t topology.Topology, ham *labeling.HamiltonCycle) (*System, error) {
	st, err := routing.NewState(t)
	if err != nil {
		return nil, err
	}
	return &System{st: st, ham: ham}, nil
}

// NewMeshSystem builds a System over a width x height mesh. The sorted
// MP/MC algorithms need a Hamilton cycle, which exists only when at least
// one dimension is even; for odd x odd meshes the System is still usable
// for every other algorithm and SortedMP returns an error. A dimension
// that is not positive is an error.
func NewMeshSystem(width, height int) (*System, error) {
	if err := topology.CheckMesh2D(width, height); err != nil {
		return nil, err
	}
	m := topology.NewMesh2D(width, height)
	var ham *labeling.HamiltonCycle
	if c, err := labeling.MeshHamiltonCycle(m); err == nil {
		ham = c
	}
	return newSystem(m, ham)
}

// NewCubeSystem builds a System over an n-cube. A dimension outside
// 1..62 is an error.
func NewCubeSystem(n int) (*System, error) {
	if err := topology.CheckHypercube(n); err != nil {
		return nil, err
	}
	h := topology.NewHypercube(n)
	c, err := labeling.CubeHamiltonCycle(h)
	if err != nil {
		return nil, err
	}
	return newSystem(h, c)
}

// NewMesh3DSystem builds a System over a 3D mesh (the Section 4.3
// extension): the path-based deadlock-free schemes and the baselines are
// available; the mesh-specific tree algorithms and the sorted MP/MC
// algorithms (which need a Hamilton cycle construction) are not. A
// dimension that is not positive is an error.
func NewMesh3DSystem(width, height, depth int) (*System, error) {
	if err := topology.CheckMesh3D(width, height, depth); err != nil {
		return nil, err
	}
	return newSystem(topology.NewMesh3D(width, height, depth), nil)
}

// Topology returns the underlying host graph.
func (s *System) Topology() Topology { return s.st.Topology() }

// Set builds a validated multicast set.
func (s *System) Set(source NodeID, dests ...NodeID) (MulticastSet, error) {
	return core.NewMulticastSet(s.Topology(), source, dests)
}

// SortedMP runs the sorted multicast path algorithm (Section 5.1).
func (s *System) SortedMP(k MulticastSet) (Path, error) {
	if s.ham == nil {
		return Path{}, fmt.Errorf("multicastnet: %s has no Hamilton cycle for sorted MP", s.Topology().Name())
	}
	return heuristics.SortedMP(s.Topology(), s.ham, k), nil
}

// SortedMC runs the sorted multicast cycle algorithm (Section 5.1).
func (s *System) SortedMC(k MulticastSet) (Cycle, error) {
	if s.ham == nil {
		return Cycle{}, fmt.Errorf("multicastnet: %s has no Hamilton cycle for sorted MC", s.Topology().Name())
	}
	return heuristics.SortedMC(s.Topology(), s.ham, k), nil
}

// GreedyST runs the greedy Steiner tree algorithm (Section 5.2). The
// constant-time shortest-path-region primitive it needs exists on 2D
// meshes, 3D meshes, and hypercubes.
func (s *System) GreedyST(k MulticastSet) (*STResult, error) {
	t, ok := s.Topology().(heuristics.RegionTopology)
	if !ok {
		return nil, fmt.Errorf("multicastnet: greedy ST unsupported on %s", s.Topology().Name())
	}
	return heuristics.GreedyST(t, k), nil
}

// XFirstMT runs the X-first multicast tree algorithm (mesh only).
func (s *System) XFirstMT(k MulticastSet) (*STResult, error) {
	m, ok := s.Topology().(*topology.Mesh2D)
	if !ok {
		return nil, fmt.Errorf("multicastnet: X-first MT requires a mesh")
	}
	return heuristics.XFirstMT(m, k), nil
}

// DividedGreedyMT runs the divided greedy multicast tree algorithm (mesh
// only).
func (s *System) DividedGreedyMT(k MulticastSet) (*STResult, error) {
	m, ok := s.Topology().(*topology.Mesh2D)
	if !ok {
		return nil, fmt.Errorf("multicastnet: divided greedy MT requires a mesh")
	}
	return heuristics.DividedGreedyMT(m, k), nil
}

// XYZFirstMT runs the dimension-ordered multicast tree on a 3D mesh.
func (s *System) XYZFirstMT(k MulticastSet) (*STResult, error) {
	m, ok := s.Topology().(*topology.Mesh3D)
	if !ok {
		return nil, fmt.Errorf("multicastnet: XYZ-first MT requires a 3D mesh")
	}
	return heuristics.XYZFirstMT(m, k), nil
}

// LEN runs the Lan–Esfahanian–Ni multicast tree baseline (cube only).
func (s *System) LEN(k MulticastSet) (*STResult, error) {
	h, ok := s.Topology().(*topology.Hypercube)
	if !ok {
		return nil, fmt.Errorf("multicastnet: LEN requires a hypercube")
	}
	return heuristics.LEN(h, k), nil
}

// MultiUnicastTraffic returns the traffic of the multiple one-to-one
// baseline.
func (s *System) MultiUnicastTraffic(k MulticastSet) int {
	return heuristics.MultiUnicastTraffic(s.Topology(), k)
}

// Route plans k with the named deadlock-free scheme of Chapter 6 or
// Section 8.2 ("dual-path", "multi-path", "fixed-path", "tree",
// "virtual-channel", ...; `mcroute -list-schemes` prints them all) over
// the system's canonical labeling. It returns the routing registry's
// error on an unknown name, on a scheme the topology does not support
// (tree needs a 2D mesh, multi-path a 2D mesh or hypercube) and on
// invalid options.
func (s *System) Route(name string, k MulticastSet, opts RouterOptions) (Plan, error) {
	r, err := routing.NewWithOptions(name, s.st, opts)
	if err != nil {
		return Plan{}, err
	}
	return r.PlanSet(k), nil
}

// RouteFunc adapts the named scheme for Simulate; it accepts and rejects
// exactly what Route does.
func (s *System) RouteFunc(name string, opts RouterOptions) (RouteFunc, error) {
	r, err := routing.NewWithOptions(name, s.st, opts)
	if err != nil {
		return nil, err
	}
	return wormsim.RouteFuncOf(r), nil
}

// VerifyDeadlockFree builds the complete unicast channel dependency graph
// of the system's routing function and returns an error naming a channel
// cycle if one exists (it never does for the canonical labelings; the
// check is exposed so users extending the library with new labelings can
// validate them).
func (s *System) VerifyDeadlockFree() error {
	if cyc := dfr.UnicastCDG(s.Topology(), s.st.Labeling()).FindCycle(); cyc != nil {
		return fmt.Errorf("multicastnet: channel dependency cycle %v", cyc)
	}
	return nil
}
