package topology

import "fmt"

// KAryNCube is the general k-ary n-cube of Section 2.1.3: n dimensions
// with k nodes per dimension connected as a ring (wraparound). The binary
// hypercube is the 2-ary n-cube; the torus is the k-ary 2-cube. A node is
// addressed by n digits (d_0, ..., d_{n-1}), each in [0, k); its NodeID is
// the radix-k value with d_0 least significant.
type KAryNCube struct {
	K int // radix: nodes per dimension
	N int // number of dimensions
}

// NewKAryNCube returns a k-ary n-cube. It panics for k < 2, n < 1, or a
// node count exceeding 2^30.
func NewKAryNCube(k, n int) *KAryNCube {
	if k < 2 || n < 1 {
		panic(fmt.Sprintf("topology: invalid k-ary n-cube parameters k=%d n=%d", k, n))
	}
	nodes := 1
	for i := 0; i < n; i++ {
		if nodes > (1<<30)/k {
			panic(fmt.Sprintf("topology: k-ary n-cube %d^%d too large", k, n))
		}
		nodes *= k
	}
	return &KAryNCube{K: k, N: n}
}

// Name implements Topology.
func (c *KAryNCube) Name() string { return fmt.Sprintf("%d-ary %d-cube", c.K, c.N) }

// Nodes implements Topology.
func (c *KAryNCube) Nodes() int {
	nodes := 1
	for i := 0; i < c.N; i++ {
		nodes *= c.K
	}
	return nodes
}

// MaxDegree implements Topology. Each dimension contributes two ring
// neighbors, except when k == 2, where +1 and -1 coincide.
func (c *KAryNCube) MaxDegree() int {
	if c.K == 2 {
		return c.N
	}
	return 2 * c.N
}

// Digits decomposes a NodeID into its n radix-k digits, least significant
// first.
func (c *KAryNCube) Digits(v NodeID) []int {
	CheckNode(v, c.Nodes(), c)
	d := make([]int, c.N)
	x := int(v)
	for i := 0; i < c.N; i++ {
		d[i] = x % c.K
		x /= c.K
	}
	return d
}

// FromDigits composes a NodeID from n radix-k digits, least significant
// first.
func (c *KAryNCube) FromDigits(d []int) NodeID {
	if len(d) != c.N {
		panic(fmt.Sprintf("topology: expected %d digits, got %d", c.N, len(d)))
	}
	v := 0
	for i := c.N - 1; i >= 0; i-- {
		if d[i] < 0 || d[i] >= c.K {
			panic(fmt.Sprintf("topology: digit %d out of range for radix %d", d[i], c.K))
		}
		v = v*c.K + d[i]
	}
	return NodeID(v)
}

// Neighbors implements Topology.
func (c *KAryNCube) Neighbors(v NodeID, buf []NodeID) []NodeID {
	CheckNode(v, c.Nodes(), c)
	stride := 1
	x := int(v)
	for i := 0; i < c.N; i++ {
		digit := (x / stride) % c.K
		up := (digit + 1) % c.K
		down := (digit - 1 + c.K) % c.K
		buf = append(buf, NodeID(x+(up-digit)*stride))
		if c.K > 2 {
			buf = append(buf, NodeID(x+(down-digit)*stride))
		}
		stride *= c.K
	}
	return buf
}

// Adjacent implements Topology.
func (c *KAryNCube) Adjacent(u, v NodeID) bool { return c.Distance(u, v) == 1 }

// Port implements Topology. Dimension i owns ports 2i (digit + 1) and
// 2i+1 (digit - 1), both modulo k; when k == 2 the two coincide and
// dimension i owns port i alone.
func (c *KAryNCube) Port(u, v NodeID) int {
	n := c.Nodes()
	if uint(u) >= uint(n) || uint(v) >= uint(n) {
		return -1
	}
	x, y := int(u), int(v)
	for i := 0; x != y; i++ {
		du, dv := x%c.K, y%c.K
		x, y = x/c.K, y/c.K
		if du == dv {
			continue
		}
		if x != y { // the nodes differ in a second dimension
			return -1
		}
		switch {
		case c.K == 2:
			return i
		case dv == (du+1)%c.K:
			return 2 * i
		case du == (dv+1)%c.K:
			return 2*i + 1
		}
		return -1
	}
	return -1
}

// PortNeighbor implements Topology.
func (c *KAryNCube) PortNeighbor(u NodeID, p int) NodeID {
	if uint(u) >= uint(c.Nodes()) || uint(p) >= uint(c.MaxDegree()) {
		return -1
	}
	dim, step := p, 1
	if c.K > 2 {
		dim, step = p/2, 1-2*(p%2)
	}
	stride := 1
	for i := 0; i < dim; i++ {
		stride *= c.K
	}
	digit := int(u) / stride % c.K
	return u + NodeID(((digit+step+c.K)%c.K-digit)*stride)
}

// Distance implements Topology: the sum over dimensions of ring distances
// min(|a-b|, k-|a-b|).
func (c *KAryNCube) Distance(u, v NodeID) int {
	du := c.Digits(u)
	dv := c.Digits(v)
	total := 0
	for i := 0; i < c.N; i++ {
		d := abs(du[i] - dv[i])
		total += min(d, c.K-d)
	}
	return total
}

// Diameter implements Topology.
func (c *KAryNCube) Diameter() int { return c.N * (c.K / 2) }

// Ring is the 1-dimensional k-ary cube, provided as a named convenience
// constructor for the ring topology of Section 2.1.3.
func Ring(k int) *KAryNCube { return NewKAryNCube(k, 1) }
