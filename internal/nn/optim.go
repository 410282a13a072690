package nn

import (
	"fmt"
	"math"

	"meshgnn/internal/comm"
	"meshgnn/internal/tensor"
)

// Optimizer updates parameters from their accumulated gradients.
type Optimizer interface {
	Step(params []*Param)
}

// SGD is stochastic gradient descent with optional momentum.
type SGD struct {
	LR       float64
	Momentum float64

	velocity []*tensor.Matrix
}

// NewSGD returns plain SGD (momentum 0) at the given learning rate.
func NewSGD(lr float64) *SGD { return &SGD{LR: lr} }

// Step implements Optimizer.
func (s *SGD) Step(params []*Param) {
	if s.Momentum != 0 && s.velocity == nil {
		s.velocity = make([]*tensor.Matrix, len(params))
		for i, p := range params {
			s.velocity[i] = tensor.New(p.W.Rows, p.W.Cols)
		}
	}
	for i, p := range params {
		p.Bump()
		if s.Momentum == 0 {
			tensor.AddScaled(p.W, -s.LR, p.G)
			continue
		}
		v := s.velocity[i]
		for j := range v.Data {
			v.Data[j] = s.Momentum*v.Data[j] + p.G.Data[j]
			p.W.Data[j] -= s.LR * v.Data[j]
		}
	}
}

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

// Step implements Optimizer.
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
		p.Bump()
		m, v := a.m[i], a.v[i]
		for j, g := range p.G.Data {
			m.Data[j] = a.Beta1*m.Data[j] + (1-a.Beta1)*g
			v.Data[j] = a.Beta2*v.Data[j] + (1-a.Beta2)*g*g
			p.W.Data[j] -= a.LR * (m.Data[j] / c1) / (math.Sqrt(v.Data[j]/c2) + a.Eps)
		}
	}
}

// Stateful is implemented by optimizers whose internal state (momentum,
// moment estimates) can be checkpointed and restored, enabling exact
// training resumption.
type Stateful interface {
	// State returns the optimizer's internal vectors (one slice per
	// parameter tensor, possibly nil before the first step) and its
	// step counter.
	State() (vectors [][]float64, step int)
	// Restore replaces the internal state; the vector layout must match
	// a previous State call on an identically shaped parameter list.
	Restore(vectors [][]float64, step int) error
}

// State implements Stateful: [velocity...] (empty before first step).
func (s *SGD) State() ([][]float64, int) {
	var out [][]float64
	for _, v := range s.velocity {
		out = append(out, append([]float64(nil), v.Data...))
	}
	return out, 0
}

// Restore implements Stateful.
func (s *SGD) Restore(vectors [][]float64, _ int) error {
	if len(vectors) == 0 {
		s.velocity = nil
		return nil
	}
	if s.velocity == nil {
		s.velocity = make([]*tensor.Matrix, len(vectors))
		for i, v := range vectors {
			s.velocity[i] = tensor.New(1, len(v))
		}
	}
	if len(s.velocity) != len(vectors) {
		return fmt.Errorf("nn: SGD restore got %d velocity tensors, have %d", len(vectors), len(s.velocity))
	}
	for i, v := range vectors {
		if len(v) != len(s.velocity[i].Data) {
			return fmt.Errorf("nn: SGD velocity %d length %d, want %d", i, len(v), len(s.velocity[i].Data))
		}
		copy(s.velocity[i].Data, v)
	}
	return nil
}

// State implements Stateful: [m..., v...] interleaved per parameter.
func (a *Adam) State() ([][]float64, int) {
	var out [][]float64
	for i := range a.m {
		out = append(out, append([]float64(nil), a.m[i].Data...))
		out = append(out, append([]float64(nil), a.v[i].Data...))
	}
	return out, a.t
}

// Restore implements Stateful.
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
