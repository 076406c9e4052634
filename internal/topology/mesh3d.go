package topology

import "fmt"

// Mesh3D is the non-wraparound three-dimensional mesh mentioned in
// Sections 2.1.3 and 4.3 (MIT J-machine, Caltech MOSAIC). Node (x, y, z)
// has NodeID (z*Height + y)*Width + x.
type Mesh3D struct {
	Width  int // x dimension
	Height int // y dimension
	Depth  int // z dimension
}

// NewMesh3D returns a Width x Height x Depth mesh. It panics with
// CheckMesh3D's error when a dimension is not positive.
func NewMesh3D(width, height, depth int) *Mesh3D {
	if err := CheckMesh3D(width, height, depth); err != nil {
		panic(err.Error())
	}
	return &Mesh3D{Width: width, Height: height, Depth: depth}
}

// CheckMesh3D returns an error unless every 3D mesh dimension is
// positive.
func CheckMesh3D(width, height, depth int) error {
	if width <= 0 || height <= 0 || depth <= 0 {
		return fmt.Errorf("topology: invalid 3D mesh dimensions %dx%dx%d", width, height, depth)
	}
	return nil
}

// Name implements Topology.
func (m *Mesh3D) Name() string {
	return fmt.Sprintf("%dx%dx%d mesh", m.Width, m.Height, m.Depth)
}

// Nodes implements Topology.
func (m *Mesh3D) Nodes() int { return m.Width * m.Height * m.Depth }

// MaxDegree implements Topology.
func (m *Mesh3D) MaxDegree() int {
	d := 0
	for _, n := range []int{m.Width, m.Height, m.Depth} {
		if n > 1 {
			d += 2
		}
	}
	if d == 0 {
		d = 1
	}
	return d
}

// ID converts (x, y, z) coordinates to a NodeID.
func (m *Mesh3D) ID(x, y, z int) NodeID {
	if x < 0 || x >= m.Width || y < 0 || y >= m.Height || z < 0 || z >= m.Depth {
		panic(fmt.Sprintf("topology: coordinates (%d,%d,%d) out of range for %s", x, y, z, m.Name()))
	}
	return NodeID((z*m.Height+y)*m.Width + x)
}

// XYZ converts a NodeID to (x, y, z) coordinates.
func (m *Mesh3D) XYZ(v NodeID) (x, y, z int) {
	CheckNode(v, m.Nodes(), m)
	x = int(v) % m.Width
	y = (int(v) / m.Width) % m.Height
	z = int(v) / (m.Width * m.Height)
	return
}

// Neighbors implements Topology.
func (m *Mesh3D) Neighbors(v NodeID, buf []NodeID) []NodeID {
	x, y, z := m.XYZ(v)
	if x > 0 {
		buf = append(buf, v-1)
	}
	if x < m.Width-1 {
		buf = append(buf, v+1)
	}
	if y > 0 {
		buf = append(buf, v-NodeID(m.Width))
	}
	if y < m.Height-1 {
		buf = append(buf, v+NodeID(m.Width))
	}
	plane := NodeID(m.Width * m.Height)
	if z > 0 {
		buf = append(buf, v-plane)
	}
	if z < m.Depth-1 {
		buf = append(buf, v+plane)
	}
	return buf
}

// Adjacent implements Topology.
func (m *Mesh3D) Adjacent(u, v NodeID) bool { return m.Distance(u, v) == 1 }

// Port implements Topology. The ports are x-1, x+1, y-1, y+1, z-1, z+1
// in that order; an axis one node long owns none.
func (m *Mesh3D) Port(u, v NodeID) int {
	n := m.Nodes()
	if uint(u) >= uint(n) || uint(v) >= uint(n) {
		return -1
	}
	d, p, stride := int(v)-int(u), 0, 1
	for _, size := range [3]int{m.Width, m.Height, m.Depth} {
		if size > 1 {
			// The step must keep every other coordinate: its own
			// coordinate may not wrap into the next row or plane.
			switch c := int(u) / stride % size; {
			case d == -stride && c > 0:
				return p
			case d == stride && c < size-1:
				return p + 1
			}
			p += 2
		}
		stride *= size
	}
	return -1
}

// PortNeighbor implements Topology.
func (m *Mesh3D) PortNeighbor(u NodeID, p int) NodeID {
	if uint(u) >= uint(m.Nodes()) || p < 0 {
		return -1
	}
	stride := 1
	for _, size := range [3]int{m.Width, m.Height, m.Depth} {
		if size > 1 {
			if p < 2 {
				switch c := int(u) / stride % size; {
				case p == 0 && c > 0:
					return u - NodeID(stride)
				case p == 1 && c < size-1:
					return u + NodeID(stride)
				}
				return -1
			}
			p -= 2
		}
		stride *= size
	}
	return -1
}

// Distance implements Topology: the L1 distance.
func (m *Mesh3D) Distance(u, v NodeID) int {
	ux, uy, uz := m.XYZ(u)
	vx, vy, vz := m.XYZ(v)
	return abs(ux-vx) + abs(uy-vy) + abs(uz-vz)
}

// Diameter implements Topology.
func (m *Mesh3D) Diameter() int { return m.Width + m.Height + m.Depth - 3 }

// NearestOnShortestPaths implements ShortestRegion by per-axis clamping,
// the 3D extension of the 2D mesh rule of Section 5.2.
func (m *Mesh3D) NearestOnShortestPaths(s, t, u NodeID) NodeID {
	sx, sy, sz := m.XYZ(s)
	tx, ty, tz := m.XYZ(t)
	ux, uy, uz := m.XYZ(u)
	return m.ID(
		clamp(ux, min(sx, tx), max(sx, tx)),
		clamp(uy, min(sy, ty), max(sy, ty)),
		clamp(uz, min(sz, tz), max(sz, tz)),
	)
}
