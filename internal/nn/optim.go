package nn

import (
	"fmt"
	"math"

	"meshgnn/internal/comm"
	"meshgnn/internal/parallel"
	"meshgnn/internal/tensor"
)

// Adam implements the Adam optimizer with the standard bias correction.
type Adam struct {
	LR, Beta1, Beta2, Eps float64

	t    int
	m, v []*tensor.Matrix

	// The step in flight, for its region (adamStep): the parameters, their
	// offsets in one flat index (computed at the first step; off[i] is
	// where parameter i starts, off[len] the total) and the bias
	// corrections.
	params []*Param
	off    []int
	c1, c2 float64
}

// adamGrain is the least number of elements a chunk of the update takes:
// one costs a few nanoseconds, so a chunk is some tens of microseconds.
const adamGrain = 4096

// NewAdam returns Adam with the conventional defaults (β1=0.9, β2=0.999,
// ε=1e-8).
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// Step applies one Adam update to every parameter from its accumulated
// gradient, as one parallel region over the parameters' elements in one
// flat index: each element's update is its own, so how the index is cut
// moves no bit.
func (a *Adam) Step(params []*Param) {
	if a.m == nil {
		a.m = make([]*tensor.Matrix, len(params))
		a.v = make([]*tensor.Matrix, len(params))
		for i, p := range params {
			a.m[i] = tensor.New(p.W.Rows, p.W.Cols)
			a.v[i] = tensor.New(p.W.Rows, p.W.Cols)
		}
	}
	if len(a.off) != len(params)+1 {
		a.off = make([]int, len(params)+1)
		for i, p := range params {
			a.off[i+1] = a.off[i] + p.Count()
		}
	}
	a.t++
	a.c1 = 1 - math.Pow(a.Beta1, float64(a.t))
	a.c2 = 1 - math.Pow(a.Beta2, float64(a.t))
	a.params = params
	parallel.ForTask(a.off[len(params)], adamGrain, (*adamStep)(a))
	a.params = nil
}

// adamStep is the update's region: Run updates flat elements [lo, hi).
type adamStep Adam

func (s *adamStep) Run(lo, hi int) {
	c1, c2 := s.c1, s.c2
	for i, p := range s.params {
		off, end := s.off[i], s.off[i+1]
		if end <= lo || off >= hi {
			continue
		}
		m, v := s.m[i], s.v[i]
		for j := max(lo, off) - off; j < min(hi, end)-off; j++ {
			g := p.G.Data[j]
			m.Data[j] = float64(s.Beta1*m.Data[j]) + float64((1-s.Beta1)*g)
			v.Data[j] = float64(s.Beta2*v.Data[j]) + float64((1-s.Beta2)*g*g)
			p.W.Data[j] -= s.LR * (m.Data[j] / c1) / (math.Sqrt(v.Data[j]/c2) + s.Eps)
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
