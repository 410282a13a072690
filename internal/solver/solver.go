// Package solver implements a distributed explicit diffusion integrator
// on the mesh-based graph, playing the role NekRS plays in the paper's
// workflow: a domain-decomposed PDE solver that produces the
// spatiotemporal snapshots the GNN trains on, sharing the mesh, the
// partition, and — crucially — the very same halo-exchange machinery the
// consistent NMP layer uses.
//
// The spatial operator is a weighted graph Laplacian over the GLL node
// graph: for node i with neighbors N(i),
//
//	du_i/dt = α · Σ_{j∈N(i)} w_ij (u_j - u_i) / m_i,
//	w_ij = 1/|x_j - x_i|²,   m_i = Σ_j w_ij,
//
// integrated with forward Euler. The inverse-square edge weights make the
// stencil a consistent finite-difference approximation of the Laplacian
// on the non-uniform GLL spacing (up to the usual graph-Laplacian
// constant), and the normalization by m_i renders the scheme
// unconditionally convergent to the neighborhood mean for dt·α ≤ 1.
//
// Both Σ w_ij (u_j - u_i) and m_i are edge aggregations, so the
// distributed evaluation uses exactly the paper's recipe: degree-scaled
// local aggregation (Eq. 4b), halo swap of aggregates (Eq. 4c), and
// coincident synchronization (Eq. 4d). A partitioned trajectory is
// therefore arithmetically equivalent to the unpartitioned one — the same
// consistency property the GNN enforces, demonstrated on a second client
// of the communication substrate.
package solver

import (
	"fmt"
	"math"

	"meshgnn/internal/comm"
	"meshgnn/internal/graph"
	"meshgnn/internal/mesh"
	"meshgnn/internal/tensor"
)

// Diffusion is a distributed explicit diffusion stepper over one rank's
// sub-graph.
type Diffusion struct {
	// Alpha is the diffusivity.
	Alpha float64
	// DT is the time step; stability requires DT*Alpha <= 1 under the
	// normalized Laplacian.
	DT float64

	c  *comm.Comm
	g  *graph.Local
	ex *comm.Exchanger
	// w holds per-edge weights 1/|d|², already divided by the edge
	// degree d_ij so cross-rank duplicates sum to the full weight.
	w []float64
	// mass is the halo-synchronized Σ w_ij per local node.
	mass []float64
	// scratch buffers reused across steps.
	agg, halo *tensor.Matrix
}

// NewDiffusion builds the stepper for one rank. All ranks must call it
// collectively (the mass assembly performs a halo exchange). The
// exchange mode is shared with the GNN; NoExchange yields the
// inconsistent variant for ablations.
func NewDiffusion(c *comm.Comm, box *mesh.Box, g *graph.Local, mode comm.ExchangeMode, alpha, dt float64) (*Diffusion, error) {
	if alpha <= 0 || dt <= 0 {
		return nil, fmt.Errorf("solver: need positive alpha and dt, got %v, %v", alpha, dt)
	}
	if alpha*dt > 1 {
		return nil, fmt.Errorf("solver: unstable step: alpha*dt = %v > 1", alpha*dt)
	}
	comm.FinalizePlan(c, g.Plan)
	ex, err := comm.NewExchanger(mode, g.Plan)
	if err != nil {
		return nil, err
	}
	d := &Diffusion{
		Alpha: alpha, DT: dt,
		c: c, g: g, ex: ex,
		w:    make([]float64, g.NumEdges()),
		agg:  tensor.New(g.NumLocal(), 1),
		halo: tensor.New(g.NumHalo(), 1),
	}
	static := g.StaticEdgeFeatures(box)
	for k := range d.w {
		dist := static.At(k, 3)
		if dist <= 0 {
			return nil, fmt.Errorf("solver: degenerate edge %d", k)
		}
		d.w[k] = 1 / (dist * dist * g.EdgeDegree[k])
	}
	// Assemble the consistent mass m_i = Σ w_ij with a halo-synced
	// aggregation of ones.
	ones := tensor.New(g.NumLocal(), 1)
	for i := range ones.Data {
		ones.Data[i] = 1
	}
	mass := d.aggregate(ones, func(k int, du float64) float64 { return d.w[k] })
	d.mass = mass.Data
	for i, m := range d.mass {
		if m <= 0 {
			return nil, fmt.Errorf("solver: node %d has non-positive mass %v", i, m)
		}
	}
	return d, nil
}

// aggregate computes the halo-consistent edge aggregation
// a_i = Σ_{j∈N(i)} f(edge k, u_j - u_i) following Eqs. 4b–4d. The
// callback receives the edge index and the local difference; weights must
// already include the 1/d_ij factor.
func (d *Diffusion) aggregate(u *tensor.Matrix, f func(k int, du float64) float64) *tensor.Matrix {
	g := d.g
	agg := tensor.New(g.NumLocal(), 1)
	for k, e := range g.Edges {
		du := u.Data[e[0]] - u.Data[e[1]] // u_j - u_i with i = receiver e[1]
		agg.Data[e[1]] += f(k, du)
	}
	halo := tensor.New(g.NumHalo(), 1)
	d.ex.Exchange(d.c, comm.Forward, agg, halo, 1)
	for hr, owner := range g.HaloOwner {
		agg.Data[owner] += halo.Data[hr]
	}
	return agg
}

// Step advances the scalar field u (one value per local node) by one time
// step in place. All ranks must call collectively.
func (d *Diffusion) Step(u *tensor.Matrix) {
	if u.Rows != d.g.NumLocal() || u.Cols != 1 {
		panic(fmt.Sprintf("solver: field shape %dx%d, want %dx1", u.Rows, u.Cols, d.g.NumLocal()))
	}
	flux := d.aggregate(u, func(k int, du float64) float64 { return d.w[k] * du })
	c := d.Alpha * d.DT
	for i := range u.Data {
		u.Data[i] += c * flux.Data[i] / d.mass[i]
	}
}

// Run advances u by n steps, invoking observe (if non-nil) after every
// step with the 1-based step index.
func (d *Diffusion) Run(u *tensor.Matrix, n int, observe func(step int, u *tensor.Matrix)) {
	for s := 1; s <= n; s++ {
		d.Step(u)
		if observe != nil {
			observe(s, u)
		}
	}
}

// Energy returns the halo-consistent quadratic invariant Σ u_i²/d_i,
// which the diffusion operator strictly dissipates. It AllReduces across
// ranks, so every rank returns the global value.
func (d *Diffusion) Energy(u *tensor.Matrix) float64 {
	var s float64
	for i, v := range u.Data {
		s += v * v / d.g.NodeDegree[i]
	}
	buf := []float64{s}
	d.c.AllReduceSum(buf)
	return buf[0]
}

// Mean returns the degree-weighted global mean of u, a conserved quantity
// of the continuous diffusion operator on periodic domains.
func (d *Diffusion) Mean(u *tensor.Matrix) float64 {
	var s, n float64
	for i, v := range u.Data {
		s += v / d.g.NodeDegree[i]
		n += 1 / d.g.NodeDegree[i]
	}
	buf := []float64{s, n}
	d.c.AllReduceSum(buf)
	return buf[0] / buf[1]
}

// MaxAbs returns the global max-norm of u.
func (d *Diffusion) MaxAbs(u *tensor.Matrix) float64 {
	var m float64
	for _, v := range u.Data {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	buf := []float64{m}
	d.c.AllReduceMax(buf)
	return buf[0]
}
