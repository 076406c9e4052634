// Package fault is the fault-injection subsystem: deterministic, seeded
// fault plans (link, node, and virtual-channel failures with activation
// times) and one degraded-mode router, LiveRouter, that keeps every
// registry scheme routing — and provably deadlock-free — around dead
// hardware as faults come and go. The router is the one record of which
// hardware is dead.
//
// The fault model follows the dissertation's hardware assumptions: links
// are bidirectional physical channels, so a link fault removes both
// directed channels in every class; a node fault removes the node's
// router and hence all its incident links; a virtual-channel fault
// removes a single directed channel copy (one dfr.Channel) while the
// physical link keeps carrying its other classes.
//
// Degraded-mode routing (see LiveRouter) re-runs the original scheme
// over the masked graph — the topology minus its dead nodes and links —
// falls back through the path-based schemes, and as a last resort
// repairs plans with label-monotone escape segments on escalating channel
// classes. Fault and repair events reach the router as Deltas, absorbed
// in O(|delta|); a router for a fixed set of faults is a fresh router plus
// one fail-only delta of those events. Every produced plan keeps the
// channel dependency graph acyclic
// (re-verifiable via internal/dfr); destinations severed from the source
// are reported with a typed partition error (ErrPartitioned) rather than
// routed through dead hardware.
package fault

import (
	"fmt"
	"sort"

	"multicastnet/internal/dfr"
	"multicastnet/internal/stats"
	"multicastnet/internal/topology"
)

// Kind is the fault category of an Event.
type Kind int

// The three fault categories of the model.
const (
	// LinkFault kills one undirected link: both directions, all classes.
	LinkFault Kind = iota
	// NodeFault kills one node and every link incident to it.
	NodeFault
	// VCFault kills one directed virtual-channel copy (a single
	// dfr.Channel); other classes of the same link stay alive.
	VCFault
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case LinkFault:
		return "link"
	case NodeFault:
		return "node"
	case VCFault:
		return "vc"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Event is one timed hardware failure. The fault activates at the start
// of simulation cycle Cycle; within a static Plan it is permanent, while
// the delta path (Delta.Repair) models repair as the exact reversal of an
// active event.
type Event struct {
	Kind  Kind
	Cycle int64
	// A, B are the endpoints: the link (A, B) for LinkFault, the node A
	// for NodeFault (B unused), the directed channel A -> B for VCFault.
	A, B topology.NodeID
	// Class is the failed channel copy of a VCFault.
	Class int
}

// Matches reports whether the event's failure covers the directed
// channel c — the per-event form of LiveRouter.ChannelDead, used to fail
// channels in a running simulation as each event activates.
func (e Event) Matches(c dfr.Channel) bool {
	switch e.Kind {
	case LinkFault:
		return (c.From == e.A && c.To == e.B) || (c.From == e.B && c.To == e.A)
	case NodeFault:
		return c.From == e.A || c.To == e.A
	case VCFault:
		return c.From == e.A && c.To == e.B && c.Class == e.Class
	default:
		return false
	}
}

// String implements fmt.Stringer.
func (e Event) String() string {
	switch e.Kind {
	case LinkFault:
		return fmt.Sprintf("@%d link(%d,%d)", e.Cycle, e.A, e.B)
	case NodeFault:
		return fmt.Sprintf("@%d node(%d)", e.Cycle, e.A)
	default:
		return fmt.Sprintf("@%d vc[%d,%d]#%d", e.Cycle, e.A, e.B, e.Class)
	}
}

// Spec parameterizes a seeded fault plan.
type Spec struct {
	// Links, Nodes, VCs are the counts of each fault kind to draw
	// (capped by the hardware actually present).
	Links, Nodes, VCs int
	// MaxClass bounds the channel classes VC faults target: classes are
	// drawn from [0, MaxClass). Zero selects 2, the double-channel case.
	MaxClass int
	// Horizon spreads activation cycles uniformly over [0, Horizon);
	// zero activates every fault at cycle 0 (a static fault scenario).
	Horizon int64
	// Seed makes the plan reproducible.
	Seed uint64
}

// Plan is a deterministic, seeded schedule of fault events over one
// topology, sorted by activation cycle. Plans are immutable and safe for
// concurrent use.
type Plan struct {
	events []Event
}

// NewPlan draws a fault plan for t from spec. The draw is a pure
// function of (topology, spec): links are enumerated in canonical order
// and sampled with a SplitMix64 stream derived from the seed, so equal
// inputs give byte-identical plans on every platform.
func NewPlan(t topology.Topology, spec Spec) *Plan {
	if spec.MaxClass <= 0 {
		spec.MaxClass = 2
	}
	links := EnumerateLinks(t)
	rng := stats.NewRand(stats.DeriveSeed(spec.Seed, "fault/plan"))
	var events []Event

	nLinks := spec.Links
	if nLinks > len(links) {
		nLinks = len(links)
	}
	if nLinks > 0 {
		for _, i := range rng.Sample(len(links), nLinks) {
			events = append(events, Event{Kind: LinkFault, A: links[i].U, B: links[i].V})
		}
	}
	nNodes := spec.Nodes
	if nNodes > t.Nodes() {
		nNodes = t.Nodes()
	}
	if nNodes > 0 {
		for _, v := range rng.Sample(t.Nodes(), nNodes) {
			events = append(events, Event{Kind: NodeFault, A: topology.NodeID(v)})
		}
	}
	// VC faults target directed channel copies: 2 directions per link
	// times MaxClass classes.
	vcSpace := 2 * len(links) * spec.MaxClass
	nVCs := spec.VCs
	if nVCs > vcSpace {
		nVCs = vcSpace
	}
	if nVCs > 0 {
		for _, i := range rng.Sample(vcSpace, nVCs) {
			link := links[i/(2*spec.MaxClass)]
			rest := i % (2 * spec.MaxClass)
			a, b := link.U, link.V
			if rest%2 == 1 {
				a, b = b, a
			}
			events = append(events, Event{Kind: VCFault, A: a, B: b, Class: rest / 2})
		}
	}
	// Activation times are drawn after the membership draw, in event
	// order, so the schedule shape does not disturb which hardware fails.
	if spec.Horizon > 0 {
		for i := range events {
			events[i].Cycle = int64(rng.Float64() * float64(spec.Horizon))
		}
	}
	sortEvents(events)
	return &Plan{events: events}
}

// NewStaticPlan wraps explicit events (all fields caller-chosen) as a
// plan; used by tests and by callers with externally computed scenarios.
func NewStaticPlan(events []Event) *Plan {
	own := append([]Event(nil), events...)
	sortEvents(own)
	return &Plan{events: own}
}

// sortEvents orders events by (cycle, kind, endpoints, class) so epoch
// iteration is deterministic.
func sortEvents(events []Event) {
	sort.Slice(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if a.Cycle != b.Cycle {
			return a.Cycle < b.Cycle
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.A != b.A {
			return a.A < b.A
		}
		if a.B != b.B {
			return a.B < b.B
		}
		return a.Class < b.Class
	})
}

// EnumerateLinks lists the undirected links of t in canonical (low,
// high) endpoint order — the sample space of link faults.
func EnumerateLinks(t topology.Topology) []topology.Link {
	var links []topology.Link
	var buf []topology.NodeID
	for v := 0; v < t.Nodes(); v++ {
		buf = t.Neighbors(topology.NodeID(v), buf[:0])
		for _, w := range buf {
			if topology.NodeID(v) < w {
				links = append(links, topology.Link{U: topology.NodeID(v), V: w})
			}
		}
	}
	return links
}

// Events returns the plan's events sorted by activation cycle. Callers
// must not modify the slice.
func (p *Plan) Events() []Event { return p.events }
