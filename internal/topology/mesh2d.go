package topology

import "fmt"

// Mesh2D is the non-wraparound two-dimensional mesh of Definition 4.1: a
// rectangular grid of Width columns by Height rows. Node (x, y) has
// neighbors (x±1, y) and (x, y±1) when they exist. The node with
// coordinates (x, y) has NodeID y*Width + x, matching the integer
// addressing used throughout Chapter 5 (e.g. the 4x4 mesh of Fig. 5.7).
type Mesh2D struct {
	Width  int // number of columns (x ranges over 0..Width-1)
	Height int // number of rows (y ranges over 0..Height-1)
}

// NewMesh2D returns a Width x Height mesh. It panics with CheckMesh2D's
// error when either dimension is not positive.
func NewMesh2D(width, height int) *Mesh2D {
	if err := CheckMesh2D(width, height); err != nil {
		panic(err.Error())
	}
	return &Mesh2D{Width: width, Height: height}
}

// CheckMesh2D returns an error unless both mesh dimensions are positive.
func CheckMesh2D(width, height int) error {
	if width <= 0 || height <= 0 {
		return fmt.Errorf("topology: invalid mesh dimensions %dx%d", width, height)
	}
	return nil
}

// Name implements Topology.
func (m *Mesh2D) Name() string { return fmt.Sprintf("%dx%d mesh", m.Width, m.Height) }

// Nodes implements Topology.
func (m *Mesh2D) Nodes() int { return m.Width * m.Height }

// MaxDegree implements Topology.
func (m *Mesh2D) MaxDegree() int {
	d := 0
	if m.Width > 1 {
		d += 2
	}
	if m.Height > 1 {
		d += 2
	}
	if d == 0 {
		d = 1
	}
	return d
}

// ID converts (x, y) coordinates to a NodeID.
func (m *Mesh2D) ID(x, y int) NodeID {
	if x < 0 || x >= m.Width || y < 0 || y >= m.Height {
		panic(fmt.Sprintf("topology: coordinates (%d,%d) out of range for %s", x, y, m.Name()))
	}
	return NodeID(y*m.Width + x)
}

// XY converts a NodeID to (x, y) coordinates.
func (m *Mesh2D) XY(v NodeID) (x, y int) {
	CheckNode(v, m.Nodes(), m)
	return int(v) % m.Width, int(v) / m.Width
}

// Neighbors implements Topology.
func (m *Mesh2D) Neighbors(v NodeID, buf []NodeID) []NodeID {
	x, y := m.XY(v)
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
	return buf
}

// Adjacent implements Topology.
func (m *Mesh2D) Adjacent(u, v NodeID) bool {
	ux, uy := m.XY(u)
	vx, vy := m.XY(v)
	return abs(ux-vx)+abs(uy-vy) == 1
}

// Port implements Topology. The ports are x-1, x+1, y-1, y+1 in that
// order; an axis one node long owns none, so a 1xN mesh numbers its y
// links 0 and 1.
func (m *Mesh2D) Port(u, v NodeID) int {
	n := m.Width * m.Height
	if uint(u) >= uint(n) || uint(v) >= uint(n) {
		return -1
	}
	d, p := int(v)-int(u), 0
	if m.Width > 1 {
		// A step of one must stay in u's row: 2 -> 3 on a 3x3 mesh wraps.
		switch {
		case d == -1 && int(u)%m.Width != 0:
			return 0
		case d == 1 && int(v)%m.Width != 0:
			return 1
		}
		p = 2
	}
	if m.Height > 1 { // v is in range, so a step of one row stays in the mesh
		switch d {
		case -m.Width:
			return p
		case m.Width:
			return p + 1
		}
	}
	return -1
}

// PortNeighbor implements Topology.
func (m *Mesh2D) PortNeighbor(u NodeID, p int) NodeID {
	n := m.Width * m.Height
	if uint(u) >= uint(n) {
		return -1
	}
	if m.Width > 1 {
		x := int(u) % m.Width
		switch {
		case p == 0 && x > 0:
			return u - 1
		case p == 1 && x < m.Width-1:
			return u + 1
		case p < 2:
			return -1
		}
		p -= 2
	}
	if m.Height > 1 {
		switch {
		case p == 0 && int(u) >= m.Width:
			return u - NodeID(m.Width)
		case p == 1 && int(u)+m.Width < n:
			return u + NodeID(m.Width)
		}
	}
	return -1
}

// Distance implements Topology: the Manhattan distance.
func (m *Mesh2D) Distance(u, v NodeID) int {
	ux, uy := m.XY(u)
	vx, vy := m.XY(v)
	return abs(ux-vx) + abs(uy-vy)
}

// Diameter implements Topology.
func (m *Mesh2D) Diameter() int { return m.Width - 1 + m.Height - 1 }

// NearestOnShortestPaths implements ShortestRegion by clamping u's
// coordinates into the rectangle spanned by s and t (the formula of
// Section 5.2).
func (m *Mesh2D) NearestOnShortestPaths(s, t, u NodeID) NodeID {
	sx, sy := m.XY(s)
	tx, ty := m.XY(t)
	ux, uy := m.XY(u)
	x1, x2 := min(sx, tx), max(sx, tx)
	y1, y2 := min(sy, ty), max(sy, ty)
	vx := clamp(ux, x1, x2)
	vy := clamp(uy, y1, y2)
	return m.ID(vx, vy)
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
