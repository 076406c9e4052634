package dfr

import (
	"math"

	"multicastnet/internal/topology"
)

// ChannelNumbering gives every channel of a topology a dense id computed
// by arithmetic, with no table and no interning:
//
//	id = (class·N + from)·D + port
//
// where N = Nodes(), D = MaxDegree() and port = Port(from, to). The
// numbering is class-major: each class owns one layer of N·D ids, so a
// scheme with more classes adds layers and needs no class bound up front.
// Ids are distinct per channel and dense enough to index flat arrays; a
// layer holds N·D ids although a border node has fewer than D links.
// Masked views number their channels as the base topology does, so an id
// is stable across fault epochs. The zero value numbers nothing.
type ChannelNumbering struct {
	topo    topology.Topology
	nodes   int
	degree  int
	layer   int // N·D, or 0 when not even class 0 fits in int32
	classes int // class layers whose ids all fit in int32
}

// NewChannelNumbering returns the numbering of t's channels.
func NewChannelNumbering(t topology.Topology) ChannelNumbering {
	m := ChannelNumbering{topo: t, nodes: t.Nodes(), degree: t.MaxDegree()}
	if m.degree > 0 && m.nodes <= (math.MaxInt32+1)/m.degree {
		m.layer = m.nodes * m.degree
		m.classes = (math.MaxInt32 + 1) / m.layer
	}
	return m
}

// Topology returns the topology the numbering was built over.
func (m ChannelNumbering) Topology() topology.Topology { return m.topo }

// Layer returns N·D, the number of ids one channel class spans, or 0 for
// a topology so large that no id fits in int32 (it numbers nothing).
func (m ChannelNumbering) Layer() int { return m.layer }

// ID returns the id of c, or false when c is not a channel: its
// endpoints are not a link of the topology, its class is negative, or
// its id would not fit in int32.
func (m ChannelNumbering) ID(c Channel) (int32, bool) {
	if c.Class < 0 || c.Class >= m.classes {
		return -1, false
	}
	p := m.topo.Port(c.From, c.To)
	if p < 0 {
		return -1, false
	}
	return int32((c.Class*m.nodes+int(c.From))*m.degree + p), true
}

// Channel decodes an id, or returns false when no channel has it.
func (m ChannelNumbering) Channel(id int32) (Channel, bool) {
	if id < 0 || int(id) >= m.classes*m.layer {
		return Channel{}, false
	}
	port, rest := int(id)%m.degree, int(id)/m.degree
	from := topology.NodeID(rest % m.nodes)
	to := m.topo.PortNeighbor(from, port)
	if to < 0 {
		return Channel{}, false
	}
	return Channel{From: from, To: to, Class: rest / m.nodes}, true
}
