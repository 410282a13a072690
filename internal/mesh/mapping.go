package mesh

import (
	"fmt"
	"math"
)

// Mapping deforms the reference box into a curvilinear domain: it takes
// reference coordinates in [0,Lx]×[0,Ly]×[0,Lz] and returns physical
// coordinates. Spectral-element solvers support curved (mapped) hexahedral
// elements this way; the mesh-based GNN inherits complex geometry — the
// paper's central motivation — through the node coordinates and the edge
// features derived from them, with the graph topology unchanged.
type Mapping func(x, y, z float64) (float64, float64, float64)

// SetMapping installs a coordinate mapping. Mappings are restricted to
// fully bounded meshes: on periodic axes the minimum-image edge geometry
// assumes the unmapped box metric.
func (b *Box) SetMapping(m Mapping) error {
	if b.Periodic[0] || b.Periodic[1] || b.Periodic[2] {
		return fmt.Errorf("mesh: mappings require a non-periodic mesh")
	}
	b.mapping = m
	return nil
}

// Mapped reports whether a coordinate mapping is installed.
func (b *Box) Mapped() bool { return b.mapping != nil }

// AnnulusSector maps the unit box onto a sector of a cylindrical annulus:
// x ∈ [0,Lx] becomes radius [r0, r1], y ∈ [0,Ly] becomes angle [0, θ],
// z is preserved — the classic curved-duct geometry.
func AnnulusSector(r0, r1, theta float64) Mapping {
	return func(x, y, z float64) (float64, float64, float64) {
		r := r0 + x*(r1-r0)
		a := y * theta
		return r * math.Cos(a), r * math.Sin(a), z
	}
}
