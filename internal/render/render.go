// Package render draws 2D-mesh routing patterns as ASCII diagrams in the
// style of the dissertation's figures: nodes in a grid ((0,0) at the
// bottom left, as the paper draws them), with the channels a route uses
// marked between them. cmd/mcroute uses it to show routing patterns; the
// goldens in the tests double as readable documentation of the worked
// examples.
package render

import (
	"sort"
	"strings"

	"multicastnet/internal/core"
	"multicastnet/internal/dfr"
	"multicastnet/internal/routing"
	"multicastnet/internal/topology"
)

// cell markers.
const (
	markPlain  = '.' // node not on any route
	markRoute  = '+' // forwarding node
	markSource = 'S'
	markDest   = 'D'
)

// Mesh renders the channels of a routing pattern over mesh m for the
// multicast set k. Channels may carry any class; classes are collapsed
// (the drawing marks physical links). The output uses three-column node
// spacing: horizontal links are drawn as "---", vertical links as "|".
func Mesh(m *topology.Mesh2D, k core.MulticastSet, chans []dfr.Channel) string {
	destSet := k.DestSet()
	onRoute := make(map[topology.NodeID]bool)
	hlink := make(map[[2]int]bool) // left node (x, y) of a used horizontal link
	vlink := make(map[[2]int]bool) // lower node (x, y) of a used vertical link
	for _, c := range chans {
		onRoute[c.From] = true
		onRoute[c.To] = true
		fx, fy := m.XY(c.From)
		tx, ty := m.XY(c.To)
		switch {
		case fy == ty && (fx-tx == 1 || tx-fx == 1):
			if tx < fx {
				fx = tx
			}
			hlink[[2]int{fx, fy}] = true
		case fx == tx && (fy-ty == 1 || ty-fy == 1):
			if ty < fy {
				fy = ty
			}
			vlink[[2]int{fx, fy}] = true
		default:
			// Not a mesh link; skip rather than panic so partial
			// patterns can still be inspected.
		}
	}

	var b strings.Builder
	for y := m.Height - 1; y >= 0; y-- {
		// Node row.
		for x := 0; x < m.Width; x++ {
			id := m.ID(x, y)
			ch := markPlain
			switch {
			case id == k.Source:
				ch = markSource
			case destSet[id]:
				ch = markDest
			case onRoute[id]:
				ch = markRoute
			}
			b.WriteRune(ch)
			if x < m.Width-1 {
				if hlink[[2]int{x, y}] {
					b.WriteString("---")
				} else {
					b.WriteString("   ")
				}
			}
		}
		b.WriteByte('\n')
		// Vertical-link row.
		if y > 0 {
			for x := 0; x < m.Width; x++ {
				if vlink[[2]int{x, y - 1}] {
					b.WriteByte('|')
				} else {
					b.WriteByte(' ')
				}
				if x < m.Width-1 {
					b.WriteString("   ")
				}
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// MeshPlan renders every route of a routing-registry plan, its paths
// and its trees (e.g. the four double-channel X-first subnetwork trees),
// as one pattern.
func MeshPlan(m *topology.Mesh2D, k core.MulticastSet, p routing.Plan) string {
	var chans []dfr.Channel
	for _, pr := range p.Paths {
		chans = append(chans, pr.Channels()...)
	}
	for _, tr := range p.Trees {
		chans = append(chans, tr.Edges...)
	}
	return Mesh(m, k, chans)
}

// MeshEdges renders an STResult-style directed edge map.
func MeshEdges(m *topology.Mesh2D, k core.MulticastSet, edges map[[2]topology.NodeID]int) string {
	chans := make([]dfr.Channel, 0, len(edges))
	for e := range edges {
		chans = append(chans, dfr.Channel{From: e[0], To: e[1]})
	}
	sort.Slice(chans, func(i, j int) bool {
		if chans[i].From != chans[j].From {
			return chans[i].From < chans[j].From
		}
		return chans[i].To < chans[j].To
	})
	return Mesh(m, k, chans)
}
