package nn

import (
	"fmt"
	"sync"

	"meshgnn/internal/parallel"
	"meshgnn/internal/tensor"
)

// Forward-only evaluators compiled from trained layers. A compiled twin
// is a snapshot: it owns copies of the source layer's parameters (later
// optimizer updates are not visible through it; compile again to serve
// them) and carries none of the training machinery: no input caches, no
// xhat/invStd stores, no gradient scratch. Its arithmetic is
// operation-for-operation identical to the training Forward, so
// predictions are bitwise-equal to the source as compiled; it just skips
// every store whose only consumer is a Backward that will never run —
// which, evaluated a row panel at a time, is every intermediate
// activation: only the block's output is ever materialised at full
// height, and with a head (RowMap) producing the input a panel at a time
// not even the block's input is. The output comes from the arena passed
// per call, so one engine epoch can span encode, message passing, and
// decode while a nil arena yields an ordinary allocation (used for
// one-time precomputations that must outlive the epoch).

// compiled is a forward-only block of element type T: the layer list, the
// block's widths and the panel driver. Both compiled twins (InferMLP,
// InferMLP32) embed it; what differs between them is how a layer's
// parameters are held and which kernels its rows go through.
//
// A compiled block is parameters it owns only, immutable once built. An
// evaluation keeps its state (the bound input and output, the per-chunk
// scratch panels) in pooled objects of its own, so any number of
// goroutines may evaluate one block concurrently: S serving sessions share
// one compile by pointer.
type compiled[T elem] struct {
	In, Out int
	layers  []inferLayer[T]
	// width is the widest intermediate activation, the scratch panel width.
	width int
	pools *inferPools
}

// inferLayer is one layer of a compiled block: a row map from a panel to a
// panel of the same rows; inPlace layers are handed dst == src when the
// source is the evaluator's own scratch.
type inferLayer[T elem] interface {
	outWidth(in int) int
	inPlace() bool
	inferRows(dst, src panel[T])
}

// panel is a few rows of a block's activations, row-major: a value header,
// so a layer that needs a tensor matrix for its kernel builds one on its
// own stack.
type panel[T elem] struct {
	rows, cols int
	data       []T
}

func mat64(p panel[float64]) tensor.Matrix {
	return tensor.Matrix{Rows: p.rows, Cols: p.cols, Data: p.data}
}

func mat32(p panel[float32]) tensor.Matrix32 {
	return tensor.Matrix32{Rows: p.rows, Cols: p.cols, Data: p.data}
}

// setLayers installs the block's layers and derives the scratch width.
func (c *compiled[T]) setLayers(ls []inferLayer[T]) {
	c.layers = ls
	w := c.In
	for _, l := range ls[:len(ls)-1] {
		w = l.outWidth(w)
		c.width = max(c.width, w)
	}
}

// inferRun is one evaluation in flight: the region's task. x is the
// full-height input, nil when a head produces it; with pre, the first
// layer's output comes from it and the block runs from the second layer.
type inferRun[T elem] struct {
	c          *compiled[T]
	rows       int
	x, y       []T
	head, tail RowMap[T]
	pre        PreHead[T]
}

// inferScratch is the working state of one chunk of an evaluation: the
// panel a head fills, and the two scratch panels intermediate activations
// ping-pong between. Pooled, so concurrent evaluations (sessions,
// goroutine ranks) never share one, and sized by shape alone: panelRows ×
// the widest input and the widest intermediate of the blocks evaluated,
// per participating thread.
type inferScratch[T elem] struct {
	in  []T
	buf [2][]T
}

// inferPools recycles the runs and scratch of one element type.
type inferPools struct{ run, scratch sync.Pool }

var pools64, pools32 inferPools

// eval evaluates rows rows of the block into y as ONE parallel region:
// each chunk carries its row panels through the head, every layer and the
// tail, intermediate activations living in per-chunk scratch panels. With
// a head the input exists one panel at a time, in that scratch, and x is
// nil; with pre instead, so does the first layer's output, and the panel
// goes through the layers after it. A block without head or tail reads x
// and writes y and nothing else.
func (c *compiled[T]) eval(rows int, x, y []T, head RowMap[T], pre PreHead[T], tail RowMap[T]) {
	r, _ := c.pools.run.Get().(*inferRun[T])
	if r == nil {
		r = new(inferRun[T])
	}
	*r = inferRun[T]{c: c, rows: rows, x: x, y: y, head: head, pre: pre, tail: tail}
	parallel.ForTask(panels(rows), 1, r)
	*r = inferRun[T]{}
	c.pools.run.Put(r)
}

// Run evaluates panels [lo, hi).
func (r *inferRun[T]) Run(lo, hi int) {
	c := r.c
	s, _ := c.pools.scratch.Get().(*inferScratch[T])
	if s == nil {
		s = new(inferScratch[T])
	}
	if need := panelRows * c.width; cap(s.buf[0]) < need {
		s.buf[0], s.buf[1] = make([]T, need), make([]T, need)
	}
	in, from := c.In, 0
	if r.pre != nil {
		in, from = c.layers[0].outWidth(c.In), 1
	}
	if need := panelRows * in; (r.head != nil || r.pre != nil) && cap(s.in) < need {
		s.in = make([]T, need)
	}
	last := len(c.layers) - 1
	for p := lo; p < hi; p++ {
		r0, r1 := p*panelRows, min((p+1)*panelRows, r.rows)
		rows := r1 - r0
		src := panel[T]{rows: rows, cols: in}
		// The caller's input is read-only; a head's panel is scratch like
		// any other.
		owned := r.head != nil || r.pre != nil
		switch {
		case r.pre != nil:
			src.data = s.in[:rows*in]
			r.pre.PreRows(src.data, r0, r1)
		case r.head != nil:
			src.data = s.in[:rows*in]
			r.head.Rows(src.data, r0, r1)
		default:
			src.data = r.x[r0*in : r1*in]
		}
		out := panel[T]{rows: rows, cols: c.Out, data: r.y[r0*c.Out : r1*c.Out]}
		w, k := in, 0
		for i := from; i <= last; i++ {
			l := c.layers[i]
			w = l.outWidth(w)
			dst := src
			switch {
			case i == last:
				dst = out
			case !l.inPlace() || !owned:
				dst = panel[T]{rows: rows, cols: w, data: s.buf[k][:rows*w]}
				k ^= 1
			}
			l.inferRows(dst, src)
			src, owned = dst, true
		}
		if r.tail != nil {
			r.tail.Rows(out.data, r0, r1)
		}
	}
	c.pools.scratch.Put(s)
}

// InferMLP is a forward-only MLP compiled from a trained MLP, evaluated in
// float64 over its own copy of the parameters.
type InferMLP struct {
	compiled[float64]
}

// Compile builds the forward-only twin of the block from a copy of its
// parameters (the bits they hold now; training the source afterwards
// changes nothing here — compile again). It holds no arena — callers pass
// one per forward (nil allocates). The weights keep their row-major
// layout, which every kernel rung reads in place with one arithmetic, so
// a compile outlives a rung change.
func (m *MLP) Compile() *InferMLP {
	out := &InferMLP{compiled: compiled[float64]{In: m.In, Out: m.Out, pools: &pools64}}
	var ls []inferLayer[float64]
	for _, l := range m.block.layers {
		switch t := l.(type) {
		case *Linear:
			ls = append(ls, &linearInfer{in: t.In, out: t.Out, w: t.Weight.W.Clone(), b: t.Bias.W.Clone().Data})
		case *ELU:
			ls = append(ls, eluInfer{})
		case *LayerNorm:
			ls = append(ls, &lnInfer{dim: t.Dim, gain: t.Gain.W.Clone().Data, shift: t.Shift.W.Clone().Data})
		default:
			panic(fmt.Sprintf("nn: cannot compile layer %T for inference", l))
		}
	}
	out.setLayers(ls)
	return out
}

// InferForward evaluates the block on x as ONE parallel region (see
// compiled.eval); only the result is drawn from a (nil allocates).
// Bitwise-equal to the training Forward.
func (m *InferMLP) InferForward(a *tensor.Arena, x *tensor.Matrix) *tensor.Matrix {
	return m.InferForwardTail(a, x, nil)
}

// InferForwardTail is InferForward with a tail, which finishes each panel
// of the output in place inside the block's one region. Bitwise
// InferForward followed by the tail over all rows.
func (m *InferMLP) InferForwardTail(a *tensor.Arena, x *tensor.Matrix, tail RowMap[float64]) *tensor.Matrix {
	if x.Cols != m.In {
		panic(fmt.Sprintf("nn: inference MLP input width %d, want %d", x.Cols, m.In))
	}
	return m.infer(a, x.Rows, x.Data, nil, nil, tail)
}

// InferRows is InferForward on an input that is never assembled: head
// fills each rows×In panel of it in the evaluator's scratch, and tail, if
// any, finishes each panel of the output in place. Bitwise InferForward on
// the assembled input followed by the tail over all rows.
func (m *InferMLP) InferRows(a *tensor.Arena, rows int, head, tail RowMap[float64]) *tensor.Matrix {
	return m.infer(a, rows, nil, head, nil, tail)
}

// InferPre is the forward-only MLP.ForwardPre: head writes each panel of
// the first Linear's output in the evaluator's scratch, and the block runs
// from its first ELU on.
// Bitwise MLP.ForwardPre with the same head.
func (m *InferMLP) InferPre(a *tensor.Arena, rows int, head PreHead[float64], tail RowMap[float64]) *tensor.Matrix {
	return m.infer(a, rows, nil, nil, head, tail)
}

// SplitFirst is the compiled block's first Linear as parts equal-width
// input parts (see SplitLinear), over the compile's own copy of it.
func (m *InferMLP) SplitFirst(parts int) SplitLinear[float64] {
	l := m.layers[0].(*linearInfer)
	return splitLinear(l.w.Data, l.b, l.in, l.out, parts)
}

func (m *InferMLP) infer(a *tensor.Arena, rows int, x []float64, head RowMap[float64], pre PreHead[float64], tail RowMap[float64]) *tensor.Matrix {
	y := a.Get(rows, m.Out)
	m.eval(rows, x, y.Data, head, pre, tail)
	return y
}

// linearInfer is y = x·W + b over copied parameters, without the input
// cache Linear keeps for its backward.
type linearInfer struct {
	in, out int
	w       *tensor.Matrix
	b       []float64
}

func (l *linearInfer) outWidth(int) int { return l.out }
func (l *linearInfer) inPlace() bool    { return false }

func (l *linearInfer) inferRows(dst, src panel[float64]) {
	d, s := mat64(dst), mat64(src)
	tensor.MatMulBiasRows(&d, &s, l.w, l.b, 0, s.Rows)
}

// eluInfer applies the ELU, in place on the evaluator's scratch.
type eluInfer struct{}

func (eluInfer) outWidth(in int) int { return in }
func (eluInfer) inPlace() bool       { return true }

func (eluInfer) inferRows(dst, src panel[float64]) {
	tensor.EluRange(dst.data, src.data, 0, len(src.data))
}

// lnInfer is the forward-only LayerNorm over copied gain/shift. It
// normalizes rows exactly like
// LayerNorm.forwardRows — the same layerNormRows — but writes only the
// output: the xhat matrix and the invStd column exist solely for the
// backward pass, so the inference twin passes nil for both.
type lnInfer struct {
	dim         int
	gain, shift []float64
}

func (ln *lnInfer) outWidth(in int) int { return in }
func (ln *lnInfer) inPlace() bool       { return false }

func (ln *lnInfer) inferRows(dstp, srcp panel[float64]) {
	if srcp.cols != ln.dim {
		panic(fmt.Sprintf("nn: inference LayerNorm width %d, want %d", srcp.cols, ln.dim))
	}
	dst, src := mat64(dstp), mat64(srcp)
	layerNormRows(&dst, nil, nil, &src, ln.gain, ln.shift, 0, src.Rows)
}
