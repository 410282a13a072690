// Package mesh generates spectral-element box meshes of the kind produced
// by NekRS, the exascale CFD solver the paper interfaces with.
//
// The domain is a rectangular box discretized by Ex×Ey×Ez non-intersecting
// hexahedral elements of polynomial order P. Each element carries
// (P+1)^3 Gauss–Legendre–Lobatto (GLL) quadrature points at which solution
// quantities live; those quadrature points become the nodes of the
// mesh-based graph (paper Fig. 2).
//
// Nodes on shared element faces are coincident: they occupy the same
// physical position and must carry identical solution values. This package
// assigns every distinct physical point a unique *global node ID* on the
// underlying GLL lattice, so local coincident nodes are collapsed by
// construction — the "reduced" graph representation of the paper's
// Fig. 3(c). Two node instances from different elements (or different MPI
// ranks) are coincident exactly when their global IDs match.
//
// For periodic directions the lattice wraps, collapsing the coincident
// nodes across the periodic boundary as well (the Taylor–Green vortex
// configuration used in the paper's scaling runs is fully periodic).
package mesh

import (
	"fmt"

	"meshgnn/internal/quadrature"
)

// Box describes a spectral-element discretization of a rectangular domain.
type Box struct {
	// Ex, Ey, Ez are the element counts along each axis.
	Ex, Ey, Ez int
	// P is the polynomial order of every element; each element has
	// (P+1)^3 GLL quadrature points.
	P int
	// Lx, Ly, Lz are the physical domain extents. Zero values default
	// to 1 in NewBox.
	Lx, Ly, Lz float64
	// Periodic marks each axis as periodic: coincident nodes across the
	// periodic boundary share one global ID.
	Periodic [3]bool

	// gll holds the order-P GLL nodes on [-1,1], precomputed once.
	gll []float64
	// nx, ny, nz are the global GLL-lattice dimensions (unique nodes
	// along each axis after collapse).
	nx, ny, nz int
}

// NewBox validates the description and returns a ready-to-use mesh.
func NewBox(ex, ey, ez, p int, periodic [3]bool) (*Box, error) {
	if ex < 1 || ey < 1 || ez < 1 {
		return nil, fmt.Errorf("mesh: element counts must be >= 1, got %dx%dx%d", ex, ey, ez)
	}
	if p < 1 {
		return nil, fmt.Errorf("mesh: polynomial order must be >= 1, got %d", p)
	}
	for d, per := range [3]bool{periodic[0], periodic[1], periodic[2]} {
		e := [3]int{ex, ey, ez}[d]
		if per && e < 2 {
			return nil, fmt.Errorf("mesh: periodic axis %d needs >= 2 elements, got %d", d, e)
		}
	}
	b := &Box{
		Ex: ex, Ey: ey, Ez: ez, P: p,
		Lx: 1, Ly: 1, Lz: 1,
		Periodic: periodic,
		gll:      quadrature.Nodes(p),
	}
	b.nx = b.latticeDim(ex, periodic[0])
	b.ny = b.latticeDim(ey, periodic[1])
	b.nz = b.latticeDim(ez, periodic[2])
	return b, nil
}

// latticeDim is the number of unique lattice points along an axis with e
// elements: e*P+1 for a bounded axis, e*P when the endpoint wraps around.
func (b *Box) latticeDim(e int, periodic bool) int {
	if periodic {
		return e * b.P
	}
	return e*b.P + 1
}

// NumElements returns the total number of elements.
func (b *Box) NumElements() int { return b.Ex * b.Ey * b.Ez }

// NumNodes returns the number of unique global nodes (after coincident
// collapse, including periodic collapse).
func (b *Box) NumNodes() int64 {
	return int64(b.nx) * int64(b.ny) * int64(b.nz)
}

// NodesPerElement returns (P+1)^3.
func (b *Box) NodesPerElement() int {
	n := b.P + 1
	return n * n * n
}

// ElementID maps element lattice coordinates to a linear element index.
func (b *Box) ElementID(e, f, g int) int {
	return e + b.Ex*(f+b.Ey*g)
}

// ElementCoords inverts ElementID.
func (b *Box) ElementCoords(id int) (e, f, g int) {
	e = id % b.Ex
	id /= b.Ex
	return e, id % b.Ey, id / b.Ey
}

// nodeID maps global lattice coordinates (already wrapped) to a global
// node ID.
func (b *Box) nodeID(ix, iy, iz int) int64 {
	return int64(ix) + int64(b.nx)*(int64(iy)+int64(b.ny)*int64(iz))
}

// NodeLattice inverts nodeID, returning global lattice coordinates.
func (b *Box) NodeLattice(id int64) (ix, iy, iz int) {
	ix = int(id % int64(b.nx))
	id /= int64(b.nx)
	return ix, int(id % int64(b.ny)), int(id / int64(b.ny))
}

// wrap folds a raw lattice index into the periodic range along axis d.
func (b *Box) wrap(i, dim int, periodic bool) int {
	if periodic && i == dim {
		return 0
	}
	return i
}

// ElementNodeIDs appends the (P+1)^3 global node IDs of element (e,f,g) to
// dst in lexicographic (a fastest) local order and returns the extended
// slice. Coincident nodes shared with neighboring elements receive the
// same ID, which is how local coincident collapse happens by construction.
func (b *Box) ElementNodeIDs(dst []int64, e, f, g int) []int64 {
	p := b.P
	for c := 0; c <= p; c++ {
		iz := b.wrap(g*p+c, b.nz, b.Periodic[2])
		for bb := 0; bb <= p; bb++ {
			iy := b.wrap(f*p+bb, b.ny, b.Periodic[1])
			for a := 0; a <= p; a++ {
				ix := b.wrap(e*p+a, b.nx, b.Periodic[0])
				dst = append(dst, b.nodeID(ix, iy, iz))
			}
		}
	}
	return dst
}

// NodeCoord returns the physical coordinates of a global node. Within each
// element the GLL points are non-uniformly spaced per the quadrature rule;
// globally the position follows from the element origin plus the GLL
// offset scaled to the element. Lattice index i decomposes as i = e*P + a
// with a in [0,P) (a == P only at the final bounded endpoint).
func (b *Box) NodeCoord(id int64) (x, y, z float64) {
	ix, iy, iz := b.NodeLattice(id)
	return b.axisCoord(ix, b.Ex, b.Lx), b.axisCoord(iy, b.Ey, b.Ly), b.axisCoord(iz, b.Ez, b.Lz)
}

func (b *Box) axisCoord(i, e int, l float64) float64 {
	p := b.P
	elem := i / p
	a := i % p
	if elem == e { // bounded endpoint: i == e*p
		elem, a = e-1, p
	}
	h := l / float64(e)
	return (float64(elem) + float64((b.gll[a]+1)/2)) * h
}

// localIndex maps intra-element lattice coordinates to the local node
// index used by ElementNodeIDs.
func localIndex(p, a, b, c int) int {
	n := p + 1
	return a + n*(b+n*c)
}

// ElementEdges returns the directed intra-element edge list in local node
// indices: every quadrature point connects to its axis-aligned lattice
// neighbors inside the element. For p=1 this yields the 12 hex edges
// (24 directed); in general 3 p (p+1)² undirected edges, matching the
// paper's Fig. 2 counts (p=3: 288 directed, p=5: 1080). The result is
// shared and must not be modified.
func (b *Box) ElementEdges() [][2]int {
	p := b.P
	var edges [][2]int
	for c := 0; c <= p; c++ {
		for bb := 0; bb <= p; bb++ {
			for a := 0; a <= p; a++ {
				i := localIndex(p, a, bb, c)
				if a < p {
					j := localIndex(p, a+1, bb, c)
					edges = append(edges, [2]int{i, j}, [2]int{j, i})
				}
				if bb < p {
					j := localIndex(p, a, bb+1, c)
					edges = append(edges, [2]int{i, j}, [2]int{j, i})
				}
				if c < p {
					j := localIndex(p, a, bb, c+1)
					edges = append(edges, [2]int{i, j}, [2]int{j, i})
				}
			}
		}
	}
	return edges
}

// NumElementEdges returns the number of directed intra-element edges:
// 6 p (p+1)^2.
func (b *Box) NumElementEdges() int {
	n := b.P + 1
	return 6 * b.P * n * n
}
