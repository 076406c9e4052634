package dfr

import (
	"multicastnet/internal/core"
	"multicastnet/internal/labeling"
	"multicastnet/internal/topology"
)

// VirtualChannelPath implements the Section 8.2 extension the
// dissertation leaves as future work: "the network may be partitioned
// into many sub-networks [using virtual channels]. The set of destination
// nodes then may be distributed to different sub-networks to support
// multiple multicast paths."
//
// With v channel copies per direction the network splits into v
// independent high/low subnetwork pairs. The high destinations, sorted by
// label, are divided into v contiguous label blocks, one per copy, and
// likewise the low destinations; each block is routed as a label-monotone
// path in its own copy. Every copy network carries only monotone paths,
// so each copy's channel dependency graph is acyclic and the scheme is
// deadlock-free for any v. v = 1 is exactly dual-path routing; growing v
// trades extra startup legs for shorter per-path visit sequences without
// concentrating all paths on the source's physical out-channels of a
// single copy.
//
// Channel classes are assigned as 2*copy for high paths and 2*copy+1 for
// low paths, so all 2v subnetworks are disjoint even on topologies where
// a physical link could carry both a high and a low path of different
// source pairs.
func VirtualChannelPath(t topology.Topology, l labeling.Labeling, k core.MulticastSet, v int) Star {
	if v < 1 {
		panic("dfr: virtual channel count must be at least 1")
	}
	dh, dl := HighLowPartition(l, k)
	nbuf := neighborBuf(t)
	s := Star{Source: k.Source, Paths: make([]PathRoute, 0, min(len(dh), v)+min(len(dl), v))}
	for half, ds := range [2][]topology.NodeID{dh, dl} {
		// At most v contiguous, non-empty, nearly equal blocks, the
		// larger ones first.
		blocks := min(len(ds), v)
		for copyIdx, start := 0, 0; copyIdx < blocks; copyIdx++ {
			size := len(ds) / blocks
			if copyIdx < len(ds)%blocks {
				size++
			}
			block := ds[start : start+size : start+size]
			start += size
			s.Paths = append(s.Paths, PathRoute{
				Nodes: routeThrough(t, l, k.Source, k.Source, block, nbuf),
				Dests: block,
				Class: 2*copyIdx + half,
			})
		}
	}
	return s
}
