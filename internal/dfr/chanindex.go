package dfr

import (
	"fmt"
	"math/bits"

	"multicastnet/internal/topology"
)

// ChanIndex interns channels to dense int32 ids 0, 1, 2, ... in first-use
// order, without hashing. Each source node owns one contiguous block of
// compact {to, class, id} entries in a shared pool, so a lookup reads the
// node's block header and scans the channels leaving that node — at most
// degree x classes of them — in a few adjacent cache lines, however
// scattered their ids are. Block capacities are powers of two: a full
// block moves to a free block of twice its size, and the one it leaves is
// kept for the next block of that size, so the pool holds few unused
// entries and only grows by append. The number of classes has no fixed
// bound, which is why an id is not a formula of the link and the class.
// From is not stored: it is the node that owns the block.
//
// A zero ChanIndex is empty and ready to use; the block headers grow to
// the largest source interned, or at once with Grow. Lookup misses every
// channel with a negative source or a field that does not fit in int32;
// Intern panics on them.
type ChanIndex struct {
	node []chanBlock // per source node
	ent  []chanEntry // the blocks, back to back
	free [][]int32   // free[k]: offsets of vacated blocks of capacity 1<<k
	n    int32       // channels interned
}

// chanBlock locates one source node's entries: ent[off : off+n], in
// first-use order. The block's capacity is the smallest power of two that
// is at least n, so the block is full exactly when n is a power of two.
type chanBlock struct {
	off, n int32
}

// chanEntry is one interned channel; its From is the node whose block
// holds it.
type chanEntry struct {
	to, class, id int32
}

// fits32 reports whether v survives a round trip through int32.
func fits32(v int) bool { return v == int(int32(v)) }

// Grow makes room for the block headers of sources 0 .. nodes-1 at once,
// so interning the channels of a topology with that many nodes never
// regrows them.
func (x *ChanIndex) Grow(nodes int) {
	if nodes > len(x.node) {
		x.node = append(x.node, make([]chanBlock, nodes-len(x.node))...)
	}
}

// Lookup returns the id of c, or false when c was never interned.
func (x *ChanIndex) Lookup(c Channel) (int32, bool) {
	if uint(c.From) >= uint(len(x.node)) || !fits32(int(c.To)) || !fits32(c.Class) {
		return -1, false
	}
	to, class := int32(c.To), int32(c.Class)
	b := x.node[c.From]
	for _, e := range x.ent[b.off : b.off+b.n] {
		if e.to == to && e.class == class {
			return e.id, true
		}
	}
	return -1, false
}

// Intern returns the id of c, assigning the next id on first use.
func (x *ChanIndex) Intern(c Channel) int32 {
	if id, ok := x.Lookup(c); ok {
		return id
	}
	if c.From < 0 || !fits32(int(c.From)) || !fits32(int(c.To)) || !fits32(c.Class) {
		panic(fmt.Sprintf("dfr: channel %v does not fit a ChanIndex", c))
	}
	x.Grow(int(c.From) + 1)
	b := &x.node[c.From]
	if b.n&(b.n-1) == 0 { // n is 0 or a power of two: no room left
		x.regrow(b)
	}
	id := x.n
	x.n++
	x.ent[b.off+b.n] = chanEntry{to: int32(c.To), class: int32(c.Class), id: id}
	b.n++
	return id
}

// regrow moves a full block into a block of twice its capacity (1 for a
// node with no block yet), reusing a vacated one when there is one, and
// keeps the block it leaves for reuse.
func (x *ChanIndex) regrow(b *chanBlock) {
	k := bits.Len32(uint32(b.n)) // the new capacity is 1<<k
	var off int32
	if k < len(x.free) && len(x.free[k]) > 0 {
		f := x.free[k]
		off, x.free[k] = f[len(f)-1], f[:len(f)-1]
	} else {
		off = int32(len(x.ent))
		x.ent = append(x.ent, make([]chanEntry, 1<<k)...)
	}
	copy(x.ent[off:], x.ent[b.off:b.off+b.n])
	if b.n > 0 {
		for len(x.free) < k {
			x.free = append(x.free, nil)
		}
		x.free[k-1] = append(x.free[k-1], b.off)
	}
	b.off = off
}

// Each calls fn once for every interned channel with its id, in source
// node order (first use first within a node), not in id order.
func (x *ChanIndex) Each(fn func(id int32, c Channel)) {
	for from, b := range x.node {
		for _, e := range x.ent[b.off : b.off+b.n] {
			fn(e.id, Channel{From: topology.NodeID(from), To: topology.NodeID(e.to), Class: int(e.class)})
		}
	}
}
