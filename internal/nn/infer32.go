package nn

import (
	"fmt"

	"meshgnn/internal/tensor"
)

// Float32 serving twins. Both compiles are snapshots: where Compile copies
// the trained float64 parameters as they are (bitwise train/infer
// parity), Compile32 down-converts every weight, bias, gain and shift to
// float32 once at compile time, and the serving GEMMs read those weights
// where they lie (tensor.MatMul32BiasRows). The twin is a
// tolerance-gated approximation of the float64 oracle, not a bitwise
// peer — callers that need exact parity stay on InferMLP. Like InferMLP,
// it does not see parameter updates made after it was compiled.

// InferMLP32 is a forward-only float32 MLP compiled from a trained MLP.
// Like InferMLP it is immutable parameter state only, and the same panel
// driver (compiled) evaluates it as one parallel region over row panels.
type InferMLP32 struct {
	compiled[float32]
}

// Compile32 builds the float32 serving twin of the block, down-converting
// its parameters once.
func (m *MLP) Compile32() *InferMLP32 {
	out := &InferMLP32{compiled[float32]{In: m.In, Out: m.Out, pools: &pools32}}
	var ls []inferLayer[float32]
	for _, l := range m.block.layers {
		switch t := l.(type) {
		case *Linear:
			ls = append(ls, &linear32{in: t.In, out: t.Out, w: tensor.Demote32(t.Weight.W), b: tensor.Demote32(t.Bias.W).Data})
		case *ELU:
			ls = append(ls, elu32{})
		case *LayerNorm:
			ls = append(ls, &ln32{
				dim:   t.Dim,
				gain:  tensor.Demote32(t.Gain.W).Data,
				shift: tensor.Demote32(t.Shift.W).Data,
			})
		default:
			panic(fmt.Sprintf("nn: cannot compile layer %T for f32 inference", l))
		}
	}
	out.setLayers(ls)
	return out
}

// InferForward32 evaluates the block in float32 as ONE parallel region
// over row panels (see compiled.eval), drawing the result from a (nil
// allocates).
func (m *InferMLP32) InferForward32(a *tensor.Arena32, x *tensor.Matrix32) *tensor.Matrix32 {
	return m.InferForward32Tail(a, x, nil)
}

// InferForward32Tail is InferForward32 with a tail (see
// InferMLP.InferForwardTail).
func (m *InferMLP32) InferForward32Tail(a *tensor.Arena32, x *tensor.Matrix32, tail RowMap[float32]) *tensor.Matrix32 {
	if x.Cols != m.In {
		panic(fmt.Sprintf("nn: f32 inference MLP input width %d, want %d", x.Cols, m.In))
	}
	y := a.Get(x.Rows, m.Out)
	m.eval(x.Rows, x.Data, y.Data, nil, nil, tail)
	return y
}

// InferRows32 is InferForward32 on an input that is never assembled (see
// InferMLP.InferRows).
func (m *InferMLP32) InferRows32(a *tensor.Arena32, rows int, head, tail RowMap[float32]) *tensor.Matrix32 {
	y := a.Get(rows, m.Out)
	m.eval(rows, nil, y.Data, head, nil, tail)
	return y
}

// InferPre32 is InferPre in float32: head writes each panel of the first
// Linear's output, and the block runs from its first ELU on.
func (m *InferMLP32) InferPre32(a *tensor.Arena32, rows int, head PreHead[float32], tail RowMap[float32]) *tensor.Matrix32 {
	y := a.Get(rows, m.Out)
	m.eval(rows, nil, y.Data, nil, head, tail)
	return y
}

// SplitFirst is the compiled block's first Linear as parts equal-width
// input parts (see SplitLinear), over the compile's demoted copy of it.
func (m *InferMLP32) SplitFirst(parts int) SplitLinear[float32] {
	l := m.layers[0].(*linear32)
	return splitLinear(l.w.Data, l.b, l.in, l.out, parts)
}

// linear32 is y = x·W + b over snapshotted float32 parameters, the bias
// add the GEMM tiles' epilogue.
type linear32 struct {
	in, out int
	w       *tensor.Matrix32
	b       []float32
}

func (l *linear32) outWidth(int) int { return l.out }
func (l *linear32) inPlace() bool    { return false }

func (l *linear32) inferRows(dst, src panel[float32]) {
	d, s := mat32(dst), mat32(src)
	tensor.MatMul32BiasRows(&d, &s, l.w, l.b, 0, s.Rows)
}

// elu32 is y = v for v > 0, exp(v)-1 otherwise, in place on the
// evaluator's scratch. The map lives in the tensor kernel tier
// (tensor.EluRange32): a round trip through a float64 exponential would
// dominate the whole f32 inference step, so the exponential runs as a
// single-precision polynomial, vectorized on the SIMD rungs.
// Every path rounds each element identically, so panel and chunk
// boundaries stay invisible.
type elu32 struct{}

func (elu32) outWidth(in int) int { return in }
func (elu32) inPlace() bool       { return true }

func (elu32) inferRows(dst, src panel[float32]) {
	tensor.EluRange32(dst.data, src.data, 0, len(src.data))
}

// ln32 is the forward-only float32 LayerNorm over snapshotted gain/shift.
// It normalizes rows like lnInfer with the moment sums accumulated in
// float64: the mean/variance reductions are where f32 accumulation would
// visibly drift at the row widths this system uses. The definition and its
// kernel are tensor.LayerNorm32Rows: the kernel puts eight ROWS in the
// vector lanes, so each row's two sums keep their ascending column order
// and every lane performs its row's scalar operations — no bit depends on
// which rows share a group, the panel boundaries or the rung.
type ln32 struct {
	dim         int
	gain, shift []float32
}

func (ln *ln32) outWidth(in int) int { return in }
func (ln *ln32) inPlace() bool       { return false }

func (ln *ln32) inferRows(dst, src panel[float32]) {
	if src.cols != ln.dim {
		panic(fmt.Sprintf("nn: f32 inference LayerNorm width %d, want %d", src.cols, ln.dim))
	}
	d, s := mat32(dst), mat32(src)
	tensor.LayerNorm32Rows(&d, &s, ln.gain, ln.shift, Epsilon, 0, s.Rows)
}
