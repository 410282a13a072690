// Package field provides analytic flow fields used as node-feature data
// for the mesh-based GNN, substituting for the NekRS-computed snapshots
// the paper trains on.
//
// The paper's scaling runs set the node features (and targets) to the
// velocity vectors of a Taylor–Green vortex solution at some time t; the
// analytic Taylor–Green field below is exactly the flow NekRS approximates
// on the same periodic cube. Additional fields (shear layer, Gaussian
// pulse) feed the example applications.
package field

import (
	"math"

	"meshgnn/internal/graph"
	"meshgnn/internal/tensor"
)

// Field evaluates a three-component vector field at a point and time.
type Field interface {
	Eval(x, y, z, t float64) (u, v, w float64)
}

// Sample fills an NumLocal×3 node-attribute matrix with f evaluated at
// the graph's node coordinates. Coincident nodes receive identical values
// because they share physical positions — the property the consistent
// formulation preserves.
func Sample(f Field, l *graph.Local, t float64) *tensor.Matrix {
	out := tensor.New(l.NumLocal(), 3)
	for i := 0; i < l.NumLocal(); i++ {
		u, v, w := f.Eval(l.Coords.At(i, 0), l.Coords.At(i, 1), l.Coords.At(i, 2), t)
		row := out.Row(i)
		row[0], row[1], row[2] = u, v, w
	}
	return out
}

// TaylorGreen is the classical Taylor–Green vortex on a 2π-periodic cube,
// scaled onto a domain of extent L:
//
//	u =  V0 sin(kx) cos(ky) cos(kz) · d(t)
//	v = -V0 cos(kx) sin(ky) cos(kz) · d(t)
//	w =  0
//
// with k = 2π/L. The viscous decay factor d(t) = exp(-2 ν k² t) is the
// exact solution of the linearized problem and the standard surrogate for
// early-time TGV decay. The field is divergence-free for all t.
type TaylorGreen struct {
	// V0 is the velocity amplitude.
	V0 float64
	// L is the domain period along each axis.
	L float64
	// Nu is the kinematic viscosity driving the decay.
	Nu float64
}

// Eval implements Field.
func (tg TaylorGreen) Eval(x, y, z, t float64) (u, v, w float64) {
	k := 2 * math.Pi / tg.L
	d := tg.V0 * math.Exp(-2*tg.Nu*k*k*t)
	u = d * math.Sin(k*x) * math.Cos(k*y) * math.Cos(k*z)
	v = -d * math.Cos(k*x) * math.Sin(k*y) * math.Cos(k*z)
	return u, v, 0
}

// ShearLayer is a doubly periodic shear layer with a sinusoidal
// cross-stream perturbation — the classic vortex-roll-up initial
// condition used in mixing-layer studies.
type ShearLayer struct {
	// U0 is the free-stream speed of each layer.
	U0 float64
	// Thickness sets the tanh profile width.
	Thickness float64
	// Perturbation is the amplitude of the cross-stream seed.
	Perturbation float64
	// L is the domain period.
	L float64
}

// Eval implements Field.
func (s ShearLayer) Eval(x, y, z, t float64) (u, v, w float64) {
	yc := y/s.L - 0.5
	u = s.U0 * math.Tanh(yc/s.Thickness)
	v = s.Perturbation * math.Sin(2*math.Pi*x/s.L) * math.Exp(-yc*yc/(2*s.Thickness))
	w = 0.1 * s.Perturbation * math.Sin(2*math.Pi*z/s.L)
	return u, v, w
}

// GaussianPulse is a diffusing Gaussian temperature pulse whose gradient
// provides a smooth vector field: the heat-equation Green's function on an
// unbounded domain, centered in the box.
type GaussianPulse struct {
	// Amplitude scales the pulse.
	Amplitude float64
	// Sigma0 is the initial pulse width.
	Sigma0 float64
	// Alpha is the diffusivity; the width grows as sqrt(σ0² + 2αt).
	Alpha float64
	// Cx, Cy, Cz is the pulse center.
	Cx, Cy, Cz float64
}

// Eval implements Field. The components are the scalar value and the two
// in-plane gradient components, giving a three-feature node signal.
func (g GaussianPulse) Eval(x, y, z, t float64) (u, v, w float64) {
	s2 := g.Sigma0*g.Sigma0 + 2*g.Alpha*t
	dx, dy, dz := x-g.Cx, y-g.Cy, z-g.Cz
	r2 := dx*dx + dy*dy + dz*dz
	// Normalization preserves total heat as the pulse spreads.
	amp := g.Amplitude * math.Pow(g.Sigma0*g.Sigma0/s2, 1.5)
	val := amp * math.Exp(-r2/(2*s2))
	return val, -dx / s2 * val, -dy / s2 * val
}

// Divergence numerically estimates ∇·f at a point via central
// differences, used by tests and examples to verify incompressibility.
func Divergence(f Field, x, y, z, t, h float64) float64 {
	up, _, _ := f.Eval(x+h, y, z, t)
	um, _, _ := f.Eval(x-h, y, z, t)
	_, vp, _ := f.Eval(x, y+h, z, t)
	_, vm, _ := f.Eval(x, y-h, z, t)
	_, _, wp := f.Eval(x, y, z+h, t)
	_, _, wm := f.Eval(x, y, z-h, t)
	return (up-um)/(2*h) + (vp-vm)/(2*h) + (wp-wm)/(2*h)
}
