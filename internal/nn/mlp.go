package nn

import (
	"fmt"
	"math/rand"

	"meshgnn/internal/tensor"
)

// MLP is the multi-layer perceptron block used throughout the paper's GNN:
//
//	Linear(in→H) · ELU · [Linear(H→H) · ELU]^h · Linear(H→out) [· LayerNorm]
//
// where h is the "MLP hidden layers" count from the paper's Table I. The
// trailing LayerNorm is applied everywhere except the decoder, following
// the encode-process-decode convention. With a 4-wide edge-feature input
// this architecture reproduces Table I's trainable-parameter counts
// exactly (3,979 small / 91,459 large).
type MLP struct {
	In, Hidden, Out int
	block           chain
	arena           *tensor.Arena
}

// NewMLP constructs the block. hidden is h (the number of H→H inner
// linears); norm appends a trailing LayerNorm(out).
func NewMLP(name string, in, hiddenDim, out, hidden int, norm bool, rng *rand.Rand) *MLP {
	if hidden < 0 {
		panic(fmt.Sprintf("nn: negative hidden layer count %d", hidden))
	}
	m := &MLP{In: in, Hidden: hiddenDim, Out: out}
	ls := []rowLayer{NewLinear(fmt.Sprintf("%s.lin0", name), in, hiddenDim, rng), &ELU{}}
	for i := 0; i < hidden; i++ {
		ls = append(ls, NewLinear(fmt.Sprintf("%s.lin%d", name, i+1), hiddenDim, hiddenDim, rng), &ELU{})
	}
	ls = append(ls, NewLinear(fmt.Sprintf("%s.out", name), hiddenDim, out, rng))
	if norm {
		ls = append(ls, NewLayerNorm(fmt.Sprintf("%s.norm", name), out))
	}
	m.block.layers = ls
	return m
}

// SetArena implements ArenaUser: the block's layers draw activations and
// gradients from a, so steady-state forward/backward passes allocate
// nothing.
func (m *MLP) SetArena(a *tensor.Arena) {
	m.arena = a
	for _, l := range m.block.layers {
		l.(ArenaUser).SetArena(a)
	}
}

// Forward implements Layer: one parallel region carries each row panel
// through every layer of the block (see chain), writing the backward
// caches as it goes. Each ELU activates its Linear's output in place.
func (m *MLP) Forward(x *tensor.Matrix) *tensor.Matrix { return m.block.forward(x, nil, nil) }

// ForwardRows is Forward on an input nobody has assembled yet: head fills
// the rows×In input panel by panel inside the block's one region (into the
// full-height workspace the block caches for its backward), and tail, if
// any, finishes each panel of the output in place. Bitwise Forward on the
// assembled input followed by the tail over all rows.
func (m *MLP) ForwardRows(rows int, head, tail RowMap[float64]) *tensor.Matrix {
	return m.block.forward(m.arena.Get(rows, m.In), head, tail)
}

// ForwardTail is Forward with a tail: tail, if any, finishes each panel of
// the output in place inside the block's one region. Bitwise Forward
// followed by the tail over all rows.
func (m *MLP) ForwardTail(x *tensor.Matrix, tail RowMap[float64]) *tensor.Matrix {
	return m.block.forward(x, nil, tail)
}

// ForwardPre is ForwardRows with the first Linear evaluated by the caller:
// head writes, panel by panel, the Linear's rows×In input (cached for the
// weight gradient, as ForwardRows' head does) and its rows×Hidden output,
// the pre-activation, and the block runs from its first ELU on. Bitwise
// ForwardRows on the same input wherever the head's output is bitwise
// x·W + b; the backward is Backward's, the exact gradient of that map.
func (m *MLP) ForwardPre(rows int, head PreHead[float64], tail RowMap[float64]) *tensor.Matrix {
	return m.block.forwardPre(m.arena.Get(rows, m.In), head, tail)
}

// SplitFirst is the block's first Linear as parts equal-width input parts
// (see SplitLinear), over the parameters themselves: a product through it
// reads the weights as they are when it runs.
func (m *MLP) SplitFirst(parts int) SplitLinear[float64] {
	l := m.block.layers[0].(*Linear)
	return splitLinear(l.Weight.W.Data, l.Bias.W.Data, l.In, l.Out, parts)
}

// Backward implements Layer: one region carries the input gradient
// through all layers and every parameter-gradient reduction of the block.
func (m *MLP) Backward(dy *tensor.Matrix) *tensor.Matrix { return m.BackwardRows(dy, 1, nil, nil) }

// BackwardBatched propagates a stacked gradient of batch samples through
// the block: the parameter-gradient reductions run per sample block so
// accumulation is bitwise the sequential per-sample oracle; the input
// gradient, a pure row map, runs stacked. Forward must have been called
// on the matching stacked input. batch == 1 is Backward.
func (m *MLP) BackwardBatched(dy *tensor.Matrix, batch int) *tensor.Matrix {
	return m.BackwardRows(dy, batch, nil, nil)
}

// BackwardRows is BackwardBatched with a head and a tail in the
// input-gradient region: head (optional) writes rows of dy — those the
// caller has not filled already — before the panel's layers read them,
// and tail (optional) is handed each panel of the returned input gradient
// as soon as it is complete.
func (m *MLP) BackwardRows(dy *tensor.Matrix, batch int, head, tail RowMap[float64]) *tensor.Matrix {
	return m.block.backward(dy, batch, head, tail)
}

// Params implements Layer.
func (m *MLP) Params() []*Param {
	var out []*Param
	for _, l := range m.block.layers {
		out = append(out, l.Params()...)
	}
	return out
}

// CountParams sums scalar parameters over a parameter list.
func CountParams(params []*Param) int {
	n := 0
	for _, p := range params {
		n += p.Count()
	}
	return n
}

// ZeroGrads clears all gradient accumulators.
func ZeroGrads(params []*Param) {
	for _, p := range params {
		p.G.Zero()
	}
}

// FlattenGrads copies all gradients into one contiguous buffer (allocating
// if buf is too small) — the single-bucket equivalent of DDP's gradient
// flattening.
func FlattenGrads(params []*Param, buf []float64) []float64 {
	n := CountParams(params)
	if cap(buf) < n {
		buf = make([]float64, n)
	}
	buf = buf[:n]
	off := 0
	for _, p := range params {
		copy(buf[off:off+p.Count()], p.G.Data)
		off += p.Count()
	}
	return buf
}

// UnflattenGrads writes buf back into the gradient tensors.
func UnflattenGrads(params []*Param, buf []float64) {
	off := 0
	for _, p := range params {
		copy(p.G.Data, buf[off:off+p.Count()])
		off += p.Count()
	}
}
