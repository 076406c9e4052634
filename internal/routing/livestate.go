package routing

import (
	"multicastnet/internal/topology"
)

// LiveState is the incremental counterpart of State: a versioned routing
// state that absorbs fault/repair deltas in O(|delta|) instead of a full
// per-topology rebuild. It leaves the healthy baseline State untouched
// and maintains a second State whose topology is a topology.LiveMasked
// and whose per-node adjacency rows are patched in place as deltas
// arrive, all behind an epoch counter.
//
// Routers built over State() observe every applied delta on their next
// plan: the scheme builders capture the State and read adjacency through
// it at plan time, so one router survives arbitrarily many epochs without
// rebuild. Plans produced at any epoch are byte-identical to plans over a
// state built from scratch with the same dead sets —
// NewStateWithLabeling over a fresh topology.LiveMasked advanced by one
// delta (TestLiveStatePlanEquivalence pins this).
//
// Concurrency contract (the epoch protocol): Apply is a write and must be
// externally synchronized against reads — apply deltas between planning
// rounds, never during one. Within an epoch the state is safe for
// unlimited concurrent readers, like State.
type LiveState struct {
	live *topology.LiveMasked
	cur  *State
}

// NewLiveState builds the live state over a healthy baseline. The
// baseline keeps its immutability guarantee; the live state starts at
// epoch 0 with every node and link healthy, planning identically to the
// baseline.
func NewLiveState(baseline *State) *LiveState {
	live := topology.NewLiveMasked(baseline.topo)
	n := baseline.topo.Nodes()
	neighbors := make([][]topology.NodeID, n)
	for v := 0; v < n; v++ {
		neighbors[v] = live.NeighborsShared(topology.NodeID(v))
	}
	return &LiveState{
		live: live,
		cur:  &State{topo: live, label: baseline.label, neighbors: neighbors},
	}
}

// Apply advances the state by one physical-graph delta, patching the
// masked adjacency rows of exactly the affected nodes. It returns the
// nodes whose rows changed.
func (ls *LiveState) Apply(d topology.GraphDelta) []topology.NodeID {
	changed := ls.live.Apply(d)
	for _, v := range changed {
		ls.cur.neighbors[v] = ls.live.NeighborsShared(v)
	}
	return changed
}

// State returns the live routing state. The pointer is stable across
// epochs: build routers over it once and they follow every delta.
func (ls *LiveState) State() *State { return ls.cur }

// Live returns the underlying live masked topology view.
func (ls *LiveState) Live() *topology.LiveMasked { return ls.live }

// Epoch returns the number of deltas applied so far.
func (ls *LiveState) Epoch() uint64 { return ls.live.Epoch() }
