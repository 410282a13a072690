package nn

import (
	"fmt"

	"meshgnn/internal/parallel"
	"meshgnn/internal/tensor"
)

// SplitLinear is a block's first Linear, y = x·W + b, over an input that is
// the concatenation of equal-width parts, x = (x_0 ‖ … ‖ x_{n−1}). Being
// linear, the layer is the sum of its parts' products,
//
//	x·W + b = x_0·W_0 + … + x_{n−1}·W_{n−1} + b,
//
// W_i the row block of W that multiplies x_i, so a caller whose parts are
// rows of smaller matrices (the message-passing layer's x_i and x_j are
// node rows, one per node, repeated over that node's edges) can multiply
// each part once where it lives and add the products per row. The sum is
// x·W + b in exact arithmetic; rounded, it is grouped differently. A
// SplitLinear holds views of the layer's parameters, never copies.
type SplitLinear[T elem] struct {
	w, b       []T
	width, out int
}

func splitLinear[T elem](w, b []T, in, out, parts int) SplitLinear[T] {
	if parts <= 0 || in%parts != 0 {
		panic(fmt.Sprintf("nn: a %d-wide input does not split into %d equal parts", in, parts))
	}
	return SplitLinear[T]{w: w, b: b, width: in / parts, out: out}
}

// Valid reports whether s is a layer, not the zero value.
func (s SplitLinear[T]) Valid() bool { return s.w != nil }

// MulRows writes rows rows of dst = x·W_part, plus the bias where bias is
// set: x is rows × the part width and dst rows × Out, both row-major. It
// is the linear layer's own kernel (tensor.MatMulBiasRows, or
// MatMul32BiasRows in float32) on a row-block view of W, so its bits are
// those of the product's one definition at the part's width.
func (s SplitLinear[T]) MulRows(dst, x []T, rows, part int, bias bool) {
	wp := s.w[part*s.width*s.out : (part+1)*s.width*s.out]
	var b []T
	if bias {
		b = s.b
	}
	switch d := any(dst).(type) {
	case []float64:
		dm := tensor.Matrix{Rows: rows, Cols: s.out, Data: d}
		xm := tensor.Matrix{Rows: rows, Cols: s.width, Data: any(x).([]float64)}
		wm := tensor.Matrix{Rows: s.width, Cols: s.out, Data: any(wp).([]float64)}
		tensor.MatMulBiasRows(&dm, &xm, &wm, any(b).([]float64), 0, rows)
	case []float32:
		dm := tensor.Matrix32{Rows: rows, Cols: s.out, Data: d}
		xm := tensor.Matrix32{Rows: rows, Cols: s.width, Data: any(x).([]float32)}
		wm := tensor.Matrix32{Rows: s.width, Cols: s.out, Data: any(wp).([]float32)}
		tensor.MatMul32BiasRows(&dm, &xm, &wm, any(b).([]float32), 0, rows)
	}
}

// partLinear is the backward of a Linear over m of its equal-width input
// parts, p0 … p0+m−1, taken as one map of one input x (rows × width):
// x → (x·W_p0 ‖ … ‖ x·W_{p0+m−1}), plus the bias where bias is set. Its
// output gradient dy is rows × m·Out; the input gradient is
// dy·(W_p0ᵀ; …; W_{p0+m−1}ᵀ), the linear layer's kernel on the stacked
// transposes of the parts; the weight gradient xᵀ·dy lands in the parts'
// row blocks of the Linear's gradient, which keeps its In×Out shape. A
// Linear's own backward is one, its whole input the one part; a block's
// first Linear has two more, for the parts its caller evaluates
// (MLP.BackwardPre, BackwardParts), whose inputs the caller sets. Only
// backward chains hold those two; their forward half is the Linear's,
// unused.
type partLinear struct {
	*Linear
	p0, m int
	bias  bool
	x     *tensor.Matrix // the parts' input

	dy, dx *tensor.Matrix // output gradient, kept for the reductions; input gradient
	wT     *tensor.Matrix // (m·Out)×width: W_p0ᵀ over … over W_{p0+m−1}ᵀ, refilled per backward
	dw     *tensor.Matrix // width×(m·Out): the weight reduction's merge scratch
}

// The two parameter reductions of a partLinear, per sample block: the
// weight gradient xᵀ·dy and, with the bias, its gradient (column sums of
// dy).
const (
	redWeight = iota
	redBias
)

func (p *partLinear) bindBackward(dy *tensor.Matrix, _ bool) *tensor.Matrix {
	w, out := p.x.Cols, p.m*p.Out
	if w == 0 || p.In%w != 0 || p.p0 < 0 || (p.p0+p.m)*w > p.In || dy.Cols != out || dy.Rows != p.x.Rows {
		panic(fmt.Sprintf("nn: parts [%d, %d) of %s over a %dx%d input, gradient %dx%d",
			p.p0, p.p0+p.m, p.Weight.Name, p.x.Rows, w, dy.Rows, dy.Cols))
	}
	if p.wT == nil || p.wT.Rows != out || p.wT.Cols != w {
		// Fixed parameter shapes: they persist across steps, outside the
		// arena.
		p.wT, p.dw = tensor.New(out, w), tensor.New(w, out)
	}
	p.dy = dy
	p.dx = p.arena.Get(dy.Rows, w)
	for q, n := 0, w*p.Out; q < p.m; q++ {
		dst := tensor.Matrix{Rows: p.Out, Cols: w, Data: p.wT.Data[q*n : (q+1)*n]}
		src := tensor.Matrix{Rows: w, Cols: p.Out, Data: p.Weight.W.Data[(p.p0+q)*n : (p.p0+q+1)*n]}
		tensor.TransposeInto(&dst, &src)
	}
	return p.dx
}

// backwardRows computes rows [lo, hi) of dx = dy·(W_p0ᵀ; …), which is by
// definition a product: the forward's kernel, on the stacked transposes.
func (p *partLinear) backwardRows(lo, hi int) {
	tensor.MatMulBiasRows(p.dx, p.dy, p.wT, nil, lo, hi)
}

func (p *partLinear) reductions(rs []parallel.Reduction, rows int) []parallel.Reduction {
	n := p.x.Cols * p.m * p.Out
	rs = append(rs, parallel.Reduction{N: rows, Grain: tensor.ReduceGrain(n), AccLen: n})
	if p.bias {
		rs = append(rs, parallel.Reduction{N: rows, Grain: tensor.ReduceGrain(p.Out), AccLen: p.Out})
	}
	return rs
}

func (p *partLinear) reduceBody(which, lo, hi int, acc []float64) {
	if which == redWeight {
		tensor.MatMulATBAcc(acc, p.x, p.dy, lo, hi)
	} else {
		tensor.ColSumsAcc(acc, p.dy, lo, hi)
	}
}

// reduceMerge folds chunk partials after the backward's region, on the
// caller, sample blocks ascending and each block's chunks ascending — the
// order MatMulATB folds them: weight partials sum into the zeroed dw
// scratch, whose columns q·Out … (q+1)·Out−1 are added to part p0+q's row
// block of the gradient once the block's last chunk is in; bias partials
// add to the gradient directly.
func (p *partLinear) reduceMerge(which int, acc []float64, last bool) {
	if which == redBias {
		tensor.AddTo(p.Bias.G.Data, acc)
		return
	}
	tensor.AddTo(p.dw.Data, acc)
	if !last {
		return
	}
	w, g := p.x.Cols, p.Weight.G.Data[p.p0*p.x.Cols*p.Out:]
	for q := 0; q < p.m; q++ {
		for i := 0; i < w; i++ {
			tensor.AddTo(g[(q*w+i)*p.Out:(q*w+i+1)*p.Out], p.dw.Row(i)[q*p.Out:(q+1)*p.Out])
		}
	}
	p.dw.Zero()
}
