package nn

import (
	"fmt"
	"sync"

	"meshgnn/internal/parallel"
	"meshgnn/internal/tensor"
)

// Forward-only evaluators compiled from trained layers. A compiled twin
// shares the source layer's parameter storage (no copies — later
// optimizer updates are visible through it) but carries none of the
// training machinery: no input caches, no xhat/invStd stores, no
// gradient scratch. Its arithmetic is operation-for-operation identical
// to the training Forward, so predictions are bitwise-equal; it just
// skips every store whose only consumer is a Backward that will never
// run — which, evaluated a row panel at a time, is every intermediate
// activation: only the block's output is ever materialised at full
// height. The output comes from the arena passed per call, so one engine
// epoch can span encode, message passing, and decode while a nil arena
// yields an ordinary allocation (used for one-time precomputations that
// must outlive the epoch).

// InferMLP is a forward-only MLP compiled from a trained MLP.
//
// A compiled block is parameter views only — weight/bias/gain/shift
// aliases and the pre-packed GEMM panels — immutable during serving. An
// evaluation keeps its state (the bound input and output, the per-chunk
// scratch panels) in pooled objects of its own, so any number of
// goroutines may evaluate one InferMLP concurrently: S serving sessions
// share one compile by pointer.
type InferMLP struct {
	In, Out int
	layers  []inferLayer
	lins    []*linearInfer // the layers holding packed panels
	// width is the widest intermediate activation, the scratch panel width.
	width int
}

// inferLayer is one layer of a compiled block: a row map from a panel to a
// panel. dst and src hold the same rows, rows of them; inPlace layers are
// handed dst == src when the source is the evaluator's own scratch.
type inferLayer interface {
	outWidth(in int) int
	inPlace() bool
	inferRows(dst, src *tensor.Matrix, rows int)
}

// Compile builds the forward-only twin of the block. The twin aliases
// the block's parameters; it holds no arena — callers pass one per
// forward (nil allocates). Weight matrices above the packed-GEMM
// threshold are packed ONCE here (bitwise-invisible — MatMul would pack
// the identical panels per call); after further training of the source
// block, Repack refreshes them.
func (m *MLP) Compile() *InferMLP {
	out := &InferMLP{In: m.In, Out: m.Out}
	w := m.In
	for i, l := range m.block.layers {
		var il inferLayer
		switch t := l.(type) {
		case *Linear:
			li := &linearInfer{in: t.In, out: t.Out, w: t.Weight.W, b: t.Bias.W}
			if tensor.ShouldPack(t.In, t.Out) {
				li.pb = tensor.PackB(t.Weight.W)
			}
			out.lins = append(out.lins, li)
			il = li
		case *ELU:
			il = eluInfer{}
		case *LayerNorm:
			il = &lnInfer{dim: t.Dim, gain: t.Gain.W, shift: t.Shift.W}
		default:
			panic(fmt.Sprintf("nn: cannot compile layer %T for inference", l))
		}
		out.layers = append(out.layers, il)
		w = il.outWidth(w)
		if i < len(m.block.layers)-1 {
			out.width = max(out.width, w)
		}
	}
	return out
}

// Repack refreshes the pre-packed weight panels from the aliased
// parameter storage — call after the source block trained on, or after a
// kernel-tier toggle (it re-packs at the new panel width). Every holder
// of the block sees the refreshed panels — there are no per-session
// copies to go stale — so Repack must not race evaluations (it is a
// rebind-time operation, like gnn.Inference.Refresh).
func (m *InferMLP) Repack() {
	for _, t := range m.lins {
		switch {
		case !tensor.ShouldPack(t.in, t.out):
			t.pb = nil
		case t.pb != nil && t.pb.NR == tensor.PackWidth():
			t.pb.Repack(t.w)
		default:
			t.pb = tensor.PackB(t.w)
		}
	}
}

// inferRun is one InferForward in flight: the region's task.
type inferRun struct {
	m    *InferMLP
	x, y *tensor.Matrix
}

// inferScratch is the working state of one chunk of an evaluation: the
// two scratch panels intermediate activations ping-pong between, and the
// headers addressing the current panel of the input, the output and the
// scratch. Pooled, so concurrent evaluations (sessions, goroutine ranks)
// never share one, and sized by shape alone: panelRows × the widest
// intermediate of the widest block evaluated, per participating thread.
type inferScratch struct {
	buf     [2][]float64
	pp      [2]tensor.Matrix
	in, out tensor.Matrix
}

var (
	inferRunPool     = sync.Pool{New: func() any { return new(inferRun) }}
	inferScratchPool = sync.Pool{New: func() any { return new(inferScratch) }}
)

// InferForward evaluates the block as ONE parallel region: each chunk
// carries its row panels through every layer, intermediate activations
// living in two per-chunk scratch panels; only the result is drawn from a
// (nil allocates). Bitwise-equal to the training Forward.
func (m *InferMLP) InferForward(a *tensor.Arena, x *tensor.Matrix) *tensor.Matrix {
	if x.Cols != m.In {
		panic(fmt.Sprintf("nn: inference MLP input width %d, want %d", x.Cols, m.In))
	}
	for _, l := range m.lins {
		l.checkTier()
	}
	y := a.Get(x.Rows, m.Out)
	r := inferRunPool.Get().(*inferRun)
	r.m, r.x, r.y = m, x, y
	parallel.ForTask(panels(x.Rows), 1, r)
	*r = inferRun{}
	inferRunPool.Put(r)
	return y
}

// Run evaluates panels [lo, hi).
func (r *inferRun) Run(lo, hi int) {
	m := r.m
	s := inferScratchPool.Get().(*inferScratch)
	if need := panelRows * m.width; cap(s.buf[0]) < need {
		s.buf[0], s.buf[1] = make([]float64, need), make([]float64, need)
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
	s.in, s.out = tensor.Matrix{}, tensor.Matrix{}
	inferScratchPool.Put(s)
}

// linearInfer is y = x·W + b over aliased parameters, without the input
// cache Linear keeps for its backward. Above the packed-GEMM threshold
// the weight panels are packed once at compile (pb) instead of per call.
type linearInfer struct {
	in, out int
	w, b    *tensor.Matrix
	pb      *tensor.PackedB // compile-time packed W, nil below threshold
}

func (l *linearInfer) outWidth(int) int { return l.out }
func (l *linearInfer) inPlace() bool    { return false }

// checkTier panics unless the layer is packed exactly as MatMul would pack
// it under the current kernel tier — the condition for its bits to be
// MatMul's. It runs on the caller, before the region is dispatched.
func (l *linearInfer) checkTier() {
	if (l.pb != nil) != tensor.ShouldPack(l.in, l.out) || (l.pb != nil && l.pb.NR != tensor.PackWidth()) {
		panic("nn: compiled weight panels predate a kernel-tier change; call Repack")
	}
}

func (l *linearInfer) inferRows(dst, src *tensor.Matrix, rows int) {
	if l.pb != nil {
		tensor.MatMulPackedBiasRows(dst, src, l.pb, l.b.Data, 0, rows)
		return
	}
	tensor.MatMulRows(dst, src, l.w, 0, rows)
	tensor.AddRowVectorRows(dst, l.b.Data, 0, rows)
}

// eluInfer applies the ELU, in place on the evaluator's scratch.
type eluInfer struct{}

func (eluInfer) outWidth(in int) int { return in }
func (eluInfer) inPlace() bool       { return true }

func (eluInfer) inferRows(dst, src *tensor.Matrix, rows int) {
	tensor.EluRange(dst.Data, src.Data, 0, rows*src.Cols)
}

// lnInfer is the forward-only LayerNorm over aliased gain/shift. It
// normalizes rows exactly like LayerNorm.forwardRows but writes only the
// output: the xhat matrix and the invStd column exist solely for the
// backward pass, so the inference twin drops both stores. The per-value
// arithmetic — (v-mu)*inv rounded, then *gain + shift — is unchanged, and
// the row statistics are LayerNorm's own (rowStats4 / rowStats, lnRows rows'
// reductions interleaved: see layers.go for why that moves no bit).
type lnInfer struct {
	dim         int
	gain, shift *tensor.Matrix
}

func (ln *lnInfer) outWidth(in int) int { return in }
func (ln *lnInfer) inPlace() bool       { return false }

func (ln *lnInfer) inferRows(dst, src *tensor.Matrix, rows int) {
	if src.Cols != ln.dim {
		panic(fmt.Sprintf("nn: inference LayerNorm width %d, want %d", src.Cols, ln.dim))
	}
	i := 0
	for end := lnGroupEnd(0, rows, ln.dim); i < end; i += lnRows {
		mu, inv := rowStats4(src, i)
		for r := range mu {
			ln.normalizeRow(dst.Row(i+r), src.Row(i+r), mu[r], inv[r])
		}
	}
	for ; i < rows; i++ {
		mu, inv := rowStats(src.Row(i))
		ln.normalizeRow(dst.Row(i), src.Row(i), mu, inv)
	}
}

func (ln *lnInfer) normalizeRow(out, row []float64, mu, inv float64) {
	gain, shift, out := ln.gain.Data[:len(row)], ln.shift.Data[:len(row)], out[:len(row)]
	for j, v := range row {
		xh := (v - mu) * inv
		out[j] = xh*gain[j] + shift[j]
	}
}
