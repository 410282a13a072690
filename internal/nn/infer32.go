package nn

import (
	"fmt"
	"sync"

	"meshgnn/internal/parallel"
	"meshgnn/internal/tensor"
)

// Float32 serving twins. Where Compile builds a forward-only evaluator
// that aliases the trained float64 parameters (bitwise train/infer
// parity), Compile32 SNAPSHOTS them: every weight, bias, gain and shift
// is down-converted to float32 once at compile time, and weight matrices
// above the packed-tier threshold are pre-packed (tensor.PackB32) so the
// serving GEMMs skip the per-call pack pass entirely. The twin is a
// tolerance-gated approximation of the float64 oracle, not a bitwise
// peer — callers that need exact parity stay on InferMLP. Parameter
// updates after Compile32 are NOT visible through the twin; recompile
// after further training.

// InferMLP32 is a forward-only float32 MLP compiled from a trained MLP.
// Like InferMLP it is immutable parameter state only and evaluates as one
// parallel region over row panels.
type InferMLP32 struct {
	In, Out int
	layers  []inferLayer32
	// width is the widest intermediate activation, the scratch panel width.
	width int
}

// inferLayer32 is the float32 counterpart of inferLayer.
type inferLayer32 interface {
	outWidth(in int) int
	inPlace() bool
	inferRows(dst, src *tensor.Matrix32, rows int)
}

// Compile32 builds the float32 serving twin of the block, down-converting
// (and, where profitable, pre-packing) its parameters once.
func (m *MLP) Compile32() *InferMLP32 {
	out := &InferMLP32{In: m.In, Out: m.Out}
	w := m.In
	for i, l := range m.block.layers {
		var il inferLayer32
		switch t := l.(type) {
		case *Linear:
			li := &linear32{in: t.In, out: t.Out, w: tensor.Demote32(t.Weight.W)}
			li.b = tensor.Demote32(t.Bias.W).Data
			if tensor.ShouldPack32(t.In, t.Out) {
				li.pb = tensor.PackB32(li.w)
			}
			il = li
		case *ELU:
			il = elu32{}
		case *LayerNorm:
			il = &ln32{
				dim:   t.Dim,
				gain:  tensor.Demote32(t.Gain.W).Data,
				shift: tensor.Demote32(t.Shift.W).Data,
			}
		default:
			panic(fmt.Sprintf("nn: cannot compile layer %T for f32 inference", l))
		}
		out.layers = append(out.layers, il)
		w = il.outWidth(w)
		if i < len(m.block.layers)-1 {
			out.width = max(out.width, w)
		}
	}
	return out
}

// inferRun32 and inferScratch32 are the float32 twins of inferRun and
// inferScratch.
type inferRun32 struct {
	m    *InferMLP32
	x, y *tensor.Matrix32
}

type inferScratch32 struct {
	buf     [2][]float32
	pp      [2]tensor.Matrix32
	in, out tensor.Matrix32
}

var (
	inferRun32Pool     = sync.Pool{New: func() any { return new(inferRun32) }}
	inferScratch32Pool = sync.Pool{New: func() any { return new(inferScratch32) }}
)

// InferForward32 evaluates the block in float32 as ONE parallel region
// over row panels (see InferMLP.InferForward), drawing the result from a
// (nil allocates).
func (m *InferMLP32) InferForward32(a *tensor.Arena32, x *tensor.Matrix32) *tensor.Matrix32 {
	if x.Cols != m.In {
		panic(fmt.Sprintf("nn: f32 inference MLP input width %d, want %d", x.Cols, m.In))
	}
	y := a.Get(x.Rows, m.Out)
	r := inferRun32Pool.Get().(*inferRun32)
	r.m, r.x, r.y = m, x, y
	parallel.ForTask(panels(x.Rows), 1, r)
	*r = inferRun32{}
	inferRun32Pool.Put(r)
	return y
}

// Run evaluates panels [lo, hi).
func (r *inferRun32) Run(lo, hi int) {
	m := r.m
	s := inferScratch32Pool.Get().(*inferScratch32)
	if need := panelRows * m.width; cap(s.buf[0]) < need {
		s.buf[0], s.buf[1] = make([]float32, need), make([]float32, need)
	}
	last := len(m.layers) - 1
	for p := lo; p < hi; p++ {
		r0, r1 := p*panelRows, min((p+1)*panelRows, r.x.Rows)
		rows := r1 - r0
		r.x.SliceRows(&s.in, r0, r1)
		r.y.SliceRows(&s.out, r0, r1)
		src, w, k := &s.in, m.In, 0
		for i, l := range m.layers {
			w = l.outWidth(w)
			dst := src
			switch {
			case i == last:
				dst = &s.out
			case !l.inPlace() || src == &s.in:
				dst = &s.pp[k]
				dst.Rows, dst.Cols, dst.Data = rows, w, s.buf[k][:rows*w]
				k ^= 1
			}
			l.inferRows(dst, src, rows)
			src = dst
		}
	}
	s.in, s.out = tensor.Matrix32{}, tensor.Matrix32{}
	inferScratch32Pool.Put(s)
}

// linear32 is y = x·W + b over snapshotted float32 parameters. When the
// weight shape clears the packed-tier threshold on SIMD hardware, pb
// holds the compile-time-packed operand, the GEMM skips packing and the
// bias add is its tiles' epilogue.
type linear32 struct {
	in, out int
	w       *tensor.Matrix32
	b       []float32
	pb      *tensor.PackedB32
}

func (l *linear32) outWidth(int) int { return l.out }
func (l *linear32) inPlace() bool    { return false }

func (l *linear32) inferRows(dst, src *tensor.Matrix32, rows int) {
	if l.pb != nil {
		tensor.MatMul32PackedBiasRows(dst, src, l.pb, l.b, 0, rows)
		return
	}
	tensor.MatMul32Rows(dst, src, l.w, 0, rows)
	tensor.AddRowVector32Rows(dst, l.b, 0, rows)
}

// elu32 is y = v for v > 0, exp(v)-1 otherwise, in place on the
// evaluator's scratch. The map lives in the tensor kernel tier
// (tensor.EluRange32): the float64 math.Exp round-trip dominated the
// whole f32 inference step (~60% of the profile), so the exponential runs
// as a single-precision polynomial, vectorized on the SIMD rungs.
// Every path rounds each element identically, so panel and chunk
// boundaries stay invisible.
type elu32 struct{}

func (elu32) outWidth(in int) int { return in }
func (elu32) inPlace() bool       { return true }

func (elu32) inferRows(dst, src *tensor.Matrix32, rows int) {
	tensor.EluRange32(dst.Data, src.Data, 0, rows*src.Cols)
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

func (ln *ln32) inferRows(dst, src *tensor.Matrix32, rows int) {
	if src.Cols != ln.dim {
		panic(fmt.Sprintf("nn: f32 inference LayerNorm width %d, want %d", src.Cols, ln.dim))
	}
	tensor.LayerNorm32Rows(dst, src, ln.gain, ln.shift, Epsilon, 0, rows)
}
