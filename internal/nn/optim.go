package nn

import (
	"fmt"
	"math"

	"meshgnn/internal/comm"
	"meshgnn/internal/tensor"
)

// Adam implements the Adam optimizer with the standard bias correction.
type Adam struct {
	LR, Beta1, Beta2, Eps float64

	t    int
	m, v []*tensor.Matrix
}

// NewAdam returns Adam with the conventional defaults (β1=0.9, β2=0.999,
// ε=1e-8).
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// Step applies one Adam update to every parameter from its accumulated
// gradient.
func (a *Adam) Step(params []*Param) {
	if a.m == nil {
		a.m = make([]*tensor.Matrix, len(params))
		a.v = make([]*tensor.Matrix, len(params))
		for i, p := range params {
			a.m[i] = tensor.New(p.W.Rows, p.W.Cols)
			a.v[i] = tensor.New(p.W.Rows, p.W.Cols)
		}
	}
	a.t++
	c1 := 1 - math.Pow(a.Beta1, float64(a.t))
	c2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for i, p := range params {
		m, v := a.m[i], a.v[i]
		for j, g := range p.G.Data {
			m.Data[j] = float64(a.Beta1*m.Data[j]) + float64((1-a.Beta1)*g)
			v.Data[j] = float64(a.Beta2*v.Data[j]) + float64((1-a.Beta2)*g*g)
			p.W.Data[j] -= a.LR * (m.Data[j] / c1) / (math.Sqrt(v.Data[j]/c2) + a.Eps)
		}
	}
}

// State returns the optimizer's moments, [m, v] interleaved per parameter
// (nil before the first step), and its step count: what a checkpoint needs
// for exact training resumption.
func (a *Adam) State() ([][]float64, int) {
	var out [][]float64
	for i := range a.m {
		out = append(out, append([]float64(nil), a.m[i].Data...))
		out = append(out, append([]float64(nil), a.v[i].Data...))
	}
	return out, a.t
}

// Restore replaces the moments and step count with a State result taken on
// an identically shaped parameter list.
func (a *Adam) Restore(vectors [][]float64, step int) error {
	if len(vectors) == 0 {
		a.m, a.v, a.t = nil, nil, step
		return nil
	}
	if len(vectors)%2 != 0 {
		return fmt.Errorf("nn: Adam restore needs paired m/v vectors, got %d", len(vectors))
	}
	if a.m == nil {
		n := len(vectors) / 2
		a.m = make([]*tensor.Matrix, n)
		a.v = make([]*tensor.Matrix, n)
		for i := 0; i < n; i++ {
			a.m[i] = tensor.New(1, len(vectors[2*i]))
			a.v[i] = tensor.New(1, len(vectors[2*i+1]))
		}
	}
	if len(vectors) != 2*len(a.m) {
		return fmt.Errorf("nn: Adam restore got %d vectors, have %d moments", len(vectors), len(a.m))
	}
	for i := range a.m {
		if len(vectors[2*i]) != len(a.m[i].Data) || len(vectors[2*i+1]) != len(a.v[i].Data) {
			return fmt.Errorf("nn: Adam moment %d shape mismatch", i)
		}
		copy(a.m[i].Data, vectors[2*i])
		copy(a.v[i].Data, vectors[2*i+1])
	}
	a.t = step
	return nil
}

// AllReduceGradients sums gradients across all ranks in place — the
// distributed-data-parallel reduction. With the consistent loss of Eq. 6
// (already globally normalized by N_eff), the correct combination is a
// *sum* of the per-rank partial derivatives, not an average.
func AllReduceGradients(c *comm.Comm, params []*Param, buf []float64) []float64 {
	buf, _ = AllReduceGradientsWith(c, params, buf, nil)
	return buf
}

// AllReduceGradientsWith is AllReduceGradients with extra per-rank values
// riding in the tail of the same collective: the gradients and tail are
// summed across ranks as one buffer. The element-wise, rank-ordered sum
// gives each tail slot the bits a standalone AllReduceSum of tail would.
// It returns the (possibly grown) buffer for reuse and the reduced tail,
// a view into it valid until the buffer's next use.
func AllReduceGradientsWith(c *comm.Comm, params []*Param, buf, tail []float64) (grown, reduced []float64) {
	buf = append(FlattenGrads(params, buf), tail...)
	c.AllReduceSum(buf)
	UnflattenGrads(params, buf)
	return buf, buf[len(buf)-len(tail):]
}
