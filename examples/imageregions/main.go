// Image-region broadcast: the image-processing scenario of Section 1.2.
//
// A 256x256 image is block-partitioned over a 16x16 mesh multicomputer,
// one 16x16 tile per node. A parallel connected-component labeling pass
// runs locally in each tile; whenever a component touches a tile
// boundary, the owning node must tell every other node holding part of
// that component about the label merge — a multicast whose destination
// set is the component's tile footprint.
//
// The example synthesizes an image of rectangular blobs, derives the
// per-blob multicast sets, routes them with dual-path, multi-path, and
// the X-first tree, and compares total traffic and worst-case delivery
// distance; it finishes with a dynamic simulation of the merge phase.
package main

import (
	"fmt"
	"log"

	"multicastnet"
)

const (
	meshSide = 16
	tile     = 16 // pixels per tile side
	imgSide  = meshSide * tile
)

// blob is a rectangular image feature in pixel coordinates.
type blob struct {
	x0, y0, x1, y1 int
}

// tiles returns the mesh nodes whose tiles the blob overlaps.
func (b blob) tiles(m *multicastnet.Mesh2D) []multicastnet.NodeID {
	var out []multicastnet.NodeID
	for ty := b.y0 / tile; ty <= (b.y1-1)/tile; ty++ {
		for tx := b.x0 / tile; tx <= (b.x1-1)/tile; tx++ {
			out = append(out, m.ID(tx, ty))
		}
	}
	return out
}

func main() {
	sys, err := multicastnet.NewMeshSystem(meshSide, meshSide)
	if err != nil {
		log.Fatal(err)
	}
	mesh := sys.Topology().(*multicastnet.Mesh2D)

	// Synthetic features: a few large structures spanning many tiles and
	// a scatter of small ones, as a segmented sensor image would give.
	blobs := []blob{
		{10, 10, 250, 40},    // wide horizontal band
		{30, 60, 60, 240},    // tall vertical band
		{100, 100, 180, 180}, // central square
		{200, 150, 255, 255}, // corner region
		{70, 20, 90, 50},
		{140, 30, 170, 70},
		{20, 130, 50, 160},
		{190, 60, 230, 90},
		{120, 200, 160, 230},
		{60, 190, 90, 220},
	}

	fmt.Printf("image %dx%d on a %s, %d features\n\n", imgSide, imgSide, mesh.Name(), len(blobs))
	fmt.Println("feature  tiles  dual-path       multi-path      x-first-tree    one-to-one")

	var totDual, totMulti, totTree, totUni int
	for i, b := range blobs {
		footprint := b.tiles(mesh)
		if len(footprint) < 2 {
			continue // single-tile feature: no merge traffic
		}
		// The owner is the tile containing the feature's top-left pixel;
		// it multicasts the merge record to the rest of the footprint.
		src := footprint[0]
		dests := footprint[1:]
		k, err := sys.Set(src, dests...)
		if err != nil {
			log.Fatal(err)
		}
		dual, err := sys.Route("dual-path", k, multicastnet.RouterOptions{})
		if err != nil {
			log.Fatal(err)
		}
		multi, err := sys.Route("multi-path", k, multicastnet.RouterOptions{})
		if err != nil {
			log.Fatal(err)
		}
		xf, err := sys.XFirstMT(k)
		if err != nil {
			log.Fatal(err)
		}
		uni := sys.MultiUnicastTraffic(k)
		fmt.Printf("%7d  %5d  %3d ch %3d hops  %3d ch %3d hops  %3d ch %3d hops  %3d ch\n",
			i, len(footprint),
			dual.Traffic(), dual.MaxDistance(),
			multi.Traffic(), multi.MaxDistance(),
			xf.Links, xf.MaxDepth(), uni)
		totDual += dual.Traffic()
		totMulti += multi.Traffic()
		totTree += xf.Links
		totUni += uni
	}
	fmt.Printf("\ntotals: dual-path %d, multi-path %d, x-first tree %d, one-to-one %d channels\n",
		totDual, totMulti, totTree, totUni)

	// Dynamic merge phase: nodes fire merge multicasts concurrently.
	// Dual-path keeps the phase deadlock-free under contention.
	route, err := sys.RouteFunc("dual-path", multicastnet.RouterOptions{})
	if err != nil {
		log.Fatal(err)
	}
	res, err := multicastnet.Simulate(multicastnet.SimConfig{
		Topology:               mesh,
		Route:                  route,
		MeanInterarrivalMicros: 200,
		AvgDests:               6, // typical footprint size above
		MessageBytes:           32,
		Seed:                   7,
		WarmupDeliveries:       500,
		BatchSize:              500,
		MaxCycles:              400_000,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("merge-phase simulation: avg merge-record latency %.1f us over %d deliveries, deadlocked=%v\n",
		res.AvgLatencyMicros, res.Deliveries, res.Deadlocked)
}
