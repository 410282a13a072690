// Package nn implements the neural-network kernels the consistent GNN is
// built from: linear layers, ELU activations, layer normalization, and
// residual MLP blocks, each with explicit reverse-mode backward passes.
//
// The paper relies on PyTorch autodiff; here every layer caches what its
// backward needs and exposes Forward/Backward pairs. Gradient correctness
// is pinned down by finite-difference tests, and the distributed trainer
// reduces gradients across ranks exactly like PyTorch DDP does — except
// with a deterministic rank-ordered reduction so the paper's gradient
// consistency property (Eq. 3) can be asserted to machine precision.
//
// Memory model. Layers optionally draw their activations and intermediate
// gradients from a shared tensor.Arena (SetArena): after the first
// forward/backward pass the arena replays recorded buffers, so a training
// step allocates nothing. Without an arena the layers fall back to fresh
// tensor.New allocations with identical numerics. Parameters and their
// gradients are always ordinary allocations — their lifetime spans steps.
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"meshgnn/internal/parallel"
	"meshgnn/internal/tensor"
)

// Param is one trainable tensor with its gradient accumulator. Training
// keeps nothing derived from W between passes — every pass reads the
// weights where they are — so code may write W.Data directly (the
// optimizer, a checkpoint restore). A compile (MLP.Compile) is a snapshot
// and does not see later writes.
type Param struct {
	Name string
	W    *tensor.Matrix
	G    *tensor.Matrix
}

func newParam(name string, rows, cols int) *Param {
	return &Param{Name: name, W: tensor.New(rows, cols), G: tensor.New(rows, cols)}
}

// Count returns the number of scalar parameters.
func (p *Param) Count() int { return p.W.Rows * p.W.Cols }

// Layer is the forward/backward contract shared by all kernels. Forward
// consumes the input batch and returns the output; Backward consumes the
// output gradient, accumulates parameter gradients, and returns the input
// gradient. Backward must be called after the matching Forward.
//
// Returned activations and gradients may be arena-owned (see ArenaUser):
// they remain valid until the owning model begins its next forward pass.
//
// Linear, ELU and LayerNorm are row maps, and a chain of them (chain.go)
// is evaluated a row panel at a time through every layer as ONE parallel
// region — the block is the unit of dispatch, not the layer. Their own
// Forward/Backward methods run them as a chain of one.
type Layer interface {
	Forward(x *tensor.Matrix) *tensor.Matrix
	Backward(dy *tensor.Matrix) *tensor.Matrix
	Params() []*Param
}

// ArenaUser is implemented by layers that can draw per-step workspaces
// from a shared arena instead of allocating.
type ArenaUser interface {
	SetArena(a *tensor.Arena)
}

// Linear is a dense affine layer y = x·W + b.
type Linear struct {
	In, Out int
	Weight  *Param // In×Out
	Bias    *Param // 1×Out

	arena *tensor.Arena
	x, y  *tensor.Matrix // cached input; output being written
	dy    *tensor.Matrix // output gradient, kept for the parameter reductions
	dx    *tensor.Matrix
	dw    *tensor.Matrix // scratch for the weight-gradient reduction
	wT    *tensor.Matrix // Weightᵀ, refilled per backward: the operand of dx = dy·Wᵀ
}

// NewLinear creates a linear layer with Glorot-uniform weights drawn from
// rng. Construction order is deterministic, so every rank building the
// same model from the same seed holds identical parameters — the
// distributed-data-parallel invariant.
func NewLinear(name string, in, out int, rng *rand.Rand) *Linear {
	l := &Linear{
		In: in, Out: out,
		Weight: newParam(name+".weight", in, out),
		Bias:   newParam(name+".bias", 1, out),
	}
	limit := math.Sqrt(6.0 / float64(in+out))
	for i := range l.Weight.W.Data {
		l.Weight.W.Data[i] = (2*float64(rng.Float64()) - 1) * limit
	}
	return l
}

// SetArena implements ArenaUser.
func (l *Linear) SetArena(a *tensor.Arena) { l.arena = a }

// Forward implements Layer.
func (l *Linear) Forward(x *tensor.Matrix) *tensor.Matrix { return newChain(l).forward(x, nil, nil) }

// Backward implements Layer. Parameter gradients accumulate (+=) so a
// layer applied to several batches within one iteration sums their
// contributions; ZeroGrads resets them between iterations.
func (l *Linear) Backward(dy *tensor.Matrix) *tensor.Matrix {
	return newChain(l).backward(dy, 1, nil, nil)
}

func (l *Linear) bindForward(x *tensor.Matrix, _ bool) *tensor.Matrix {
	if x.Cols != l.In {
		panic(fmt.Sprintf("nn: Linear %s input width %d, want %d", l.Weight.Name, x.Cols, l.In))
	}
	l.x = x
	l.y = l.arena.Get(x.Rows, l.Out)
	return l.y
}

// forwardRows fully overwrites rows [lo, hi) of y; the bias add is the
// GEMM's epilogue.
func (l *Linear) forwardRows(lo, hi int) {
	tensor.MatMulBiasRows(l.y, l.x, l.Weight.W, l.Bias.W.Data, lo, hi)
}

func (l *Linear) bindBackward(dy *tensor.Matrix, _ bool) *tensor.Matrix {
	if l.dw == nil {
		// The weight-gradient scratch and the transpose persist across
		// steps (they have fixed parameter shapes), so they live outside
		// the arena.
		l.dw = tensor.New(l.In, l.Out)
		l.wT = tensor.New(l.Out, l.In)
	}
	l.dy = dy
	l.dx = l.arena.Get(dy.Rows, l.In)
	tensor.TransposeInto(l.wT, l.Weight.W)
	return l.dx
}

// backwardRows computes rows [lo, hi) of dx = dy·Wᵀ, which is by
// definition MatMul(dy, Wᵀ): the forward's kernel, on the transpose.
func (l *Linear) backwardRows(lo, hi int) {
	tensor.MatMulBiasRows(l.dx, l.dy, l.wT, nil, lo, hi)
}

// The two parameter reductions of a Linear, per sample block: the weight
// gradient xᵀ·dy and the bias gradient (column sums of dy).
const (
	redWeight = iota
	redBias
)

func (l *Linear) reductions(rs []parallel.Reduction, rows int) []parallel.Reduction {
	return append(rs,
		parallel.Reduction{N: rows, Grain: tensor.ReduceGrain(l.In * l.Out), AccLen: l.In * l.Out},
		parallel.Reduction{N: rows, Grain: tensor.ReduceGrain(l.Out), AccLen: l.Out})
}

func (l *Linear) reduceBody(which, lo, hi int, acc []float64) {
	if which == redWeight {
		tensor.MatMulATBAcc(acc, l.x, l.dy, lo, hi)
	} else {
		tensor.ColSumsAcc(acc, l.dy, lo, hi)
	}
}

// reduceMerge folds chunk partials after the backward's region, on the
// caller, sample blocks ascending and each block's chunks ascending — the
// order MatMulATB folds them: weight partials sum into the zeroed dw
// scratch, which is added to the gradient once the block's last chunk is
// in; bias partials add to the gradient directly.
func (l *Linear) reduceMerge(which int, acc []float64, last bool) {
	if which == redBias {
		tensor.AddTo(l.Bias.G.Data, acc)
		return
	}
	tensor.AddTo(l.dw.Data, acc)
	if last {
		tensor.AddTo(l.Weight.G.Data, l.dw.Data)
		l.dw.Zero()
	}
}

// Params implements Layer.
func (l *Linear) Params() []*Param { return []*Param{l.Weight, l.Bias} }

// ELU applies the exponential linear unit element-wise with alpha = 1.
type ELU struct {
	arena  *tensor.Arena
	x, y   *tensor.Matrix
	dy, dx *tensor.Matrix
}

// SetArena implements ArenaUser.
func (e *ELU) SetArena(a *tensor.Arena) { e.arena = a }

// Forward implements Layer.
func (e *ELU) Forward(x *tensor.Matrix) *tensor.Matrix { return newChain(e).forward(x, nil, nil) }

// Backward implements Layer.
func (e *ELU) Backward(dy *tensor.Matrix) *tensor.Matrix {
	return newChain(e).backward(dy, 1, nil, nil)
}

// bindForward activates in place when the input is the chain's own
// temporary (a Linear output nobody else reads): the pre-activation has no
// consumer, in the forward pass or the backward.
func (e *ELU) bindForward(x *tensor.Matrix, owned bool) *tensor.Matrix {
	e.x, e.y = x, x
	if !owned {
		e.y = e.arena.Get(x.Rows, x.Cols)
	}
	return e.y
}

func (e *ELU) forwardRows(lo, hi int) {
	c := e.x.Cols
	tensor.EluRange(e.y.Data, e.x.Data, lo*c, hi*c)
}

func (e *ELU) bindBackward(dy *tensor.Matrix, owned bool) *tensor.Matrix {
	e.dy, e.dx = dy, dy
	if !owned {
		e.dx = e.arena.Get(dy.Rows, dy.Cols)
	}
	return e.dx
}

func (e *ELU) backwardRows(lo, hi int) {
	c := e.dy.Cols
	tensor.EluGradRange(e.dx.Data, e.dy.Data, e.y.Data, lo*c, hi*c)
}

func (e *ELU) reductions(rs []parallel.Reduction, _ int) []parallel.Reduction { return rs }
func (e *ELU) reduceBody(int, int, int, []float64)                            {}
func (e *ELU) reduceMerge(int, []float64, bool)                               {}

// Params implements Layer.
func (e *ELU) Params() []*Param { return nil }

// LayerNorm normalizes each row to zero mean and unit variance, then
// applies a learned affine transform.
type LayerNorm struct {
	Dim   int
	Gain  *Param // 1×Dim
	Shift *Param // 1×Dim

	arena  *tensor.Arena
	x, y   *tensor.Matrix
	xhat   *tensor.Matrix
	invStd []float64
	dy, dx *tensor.Matrix
}

// Epsilon guards the variance in LayerNorm, matching the PyTorch
// nn.LayerNorm default the paper's stack uses.
const Epsilon = 1e-5

// NewLayerNorm creates a LayerNorm with unit gain and zero shift.
func NewLayerNorm(name string, dim int) *LayerNorm {
	ln := &LayerNorm{
		Dim:   dim,
		Gain:  newParam(name+".gain", 1, dim),
		Shift: newParam(name+".shift", 1, dim),
	}
	for i := range ln.Gain.W.Data {
		ln.Gain.W.Data[i] = 1
	}
	return ln
}

// SetArena implements ArenaUser.
func (ln *LayerNorm) SetArena(a *tensor.Arena) { ln.arena = a }

// Forward implements Layer.
func (ln *LayerNorm) Forward(x *tensor.Matrix) *tensor.Matrix {
	return newChain(ln).forward(x, nil, nil)
}

// Backward implements Layer.
func (ln *LayerNorm) Backward(dy *tensor.Matrix) *tensor.Matrix {
	return newChain(ln).backward(dy, 1, nil, nil)
}

func (ln *LayerNorm) bindForward(x *tensor.Matrix, _ bool) *tensor.Matrix {
	if x.Cols != ln.Dim {
		panic(fmt.Sprintf("nn: LayerNorm %s width %d, want %d", ln.Gain.Name, x.Cols, ln.Dim))
	}
	ln.x = x
	ln.y = ln.arena.Get(x.Rows, x.Cols)
	ln.xhat = ln.arena.Get(x.Rows, x.Cols)
	if ln.arena != nil {
		// A 1-column arena matrix backs the per-row inverse stddev cache.
		ln.invStd = ln.arena.Get(x.Rows, 1).Data
	} else if cap(ln.invStd) < x.Rows {
		ln.invStd = make([]float64, x.Rows)
	} else {
		ln.invStd = ln.invStd[:x.Rows]
	}
	return ln.y
}

// The LayerNorm row maps carry lnRows rows at a time through their
// reductions. A row's mean, variance and backward sums are each a chain of
// dependent additions — one add latency per element, with the adder idle in
// between — and rows are independent, so four chains advance together in
// the time of one. No bit moves: every row still adds its own elements in
// ascending order into its own accumulator, and the leftover rows of a
// range take the one-row loop, which is the same sequence.
//
// Rows narrower than lnInterleaveMin take the one-row loop throughout: a
// chain that short is over before the next row's loads arrive, the
// out-of-order core overlaps consecutive rows by itself, and the four-row
// set-up is pure cost (64 rows, in place: 22 % slower at 8 columns, level
// at 12, 5 % faster at 16, 27 % at 32, 46 % at 96). The gate rules the
// forward and backward passes on the rungs below avx512 and, on avx512,
// the fewer than eight rows the kernels leave at a range's end
// (layerNormRows, backwardRows).
const (
	lnRows          = 4
	lnInterleaveMin = 16
)

// lnGroupEnd returns where the lnRows-at-a-time passes over rows [lo, hi)
// of width-wide rows stop and the one-row loop takes over.
func lnGroupEnd(lo, hi, width int) int {
	if width < lnInterleaveMin {
		return lo
	}
	return lo + (hi-lo)/lnRows*lnRows
}

// rowStats returns the mean and inverse standard deviation of one row.
func rowStats(row []float64) (mu, inv float64) {
	n := float64(len(row))
	for _, v := range row {
		mu += v
	}
	mu /= n
	var varsum float64
	for _, v := range row {
		d := v - mu
		varsum += float64(d * d)
	}
	return mu, 1 / math.Sqrt(varsum/n+Epsilon)
}

// rowStats4 is rowStats of rows i … i+3 of x, their reductions
// interleaved.
func rowStats4(x *tensor.Matrix, i int) (mu, inv [lnRows]float64) {
	c := x.Cols
	r0 := x.Data[i*c : (i+1)*c]
	r1 := x.Data[(i+1)*c : (i+2)*c][:len(r0)]
	r2 := x.Data[(i+2)*c : (i+3)*c][:len(r0)]
	r3 := x.Data[(i+3)*c : (i+4)*c][:len(r0)]
	n := float64(c)
	var m0, m1, m2, m3 float64
	for j, v := range r0 {
		m0 += v
		m1 += r1[j]
		m2 += r2[j]
		m3 += r3[j]
	}
	m0 /= n
	m1 /= n
	m2 /= n
	m3 /= n
	var s0, s1, s2, s3 float64
	for j, v := range r0 {
		d0 := v - m0
		s0 += float64(d0 * d0)
		d1 := r1[j] - m1
		s1 += float64(d1 * d1)
		d2 := r2[j] - m2
		s2 += float64(d2 * d2)
		d3 := r3[j] - m3
		s3 += float64(d3 * d3)
	}
	mu = [lnRows]float64{m0, m1, m2, m3}
	inv = [lnRows]float64{
		1 / math.Sqrt(s0/n+Epsilon), 1 / math.Sqrt(s1/n+Epsilon),
		1 / math.Sqrt(s2/n+Epsilon), 1 / math.Sqrt(s3/n+Epsilon),
	}
	return mu, inv
}

// layerNormRows is the float64 LayerNorm forward over rows [lo, hi) of x,
// the one LayerNorm (which keeps the xhat and invStd caches) and lnInfer
// (which passes nil for both) share. The explicit conversions round each
// product before its add, so no build can fuse the sequence the kernel is
// held to.
//
// Whole groups of eight rows go to tensor.LayerNormRows (avx512 only; it
// does none elsewhere). The rows it leaves go lnRows at a time, then one:
// each row's own operation sequence either way, so no bit depends on the
// rung or on which rows share a group.
func layerNormRows(y, xhat *tensor.Matrix, invStd []float64, x *tensor.Matrix, gain, shift []float64, lo, hi int) {
	i := tensor.LayerNormRows(y, xhat, invStd, x, gain, shift, Epsilon, lo, hi)
	for end := lnGroupEnd(i, hi, x.Cols); i < end; i += lnRows {
		mu, inv := rowStats4(x, i)
		for r := range mu {
			normalizeRow(y, xhat, invStd, x, gain, shift, i+r, mu[r], inv[r])
		}
	}
	for ; i < hi; i++ {
		mu, inv := rowStats(x.Row(i))
		normalizeRow(y, xhat, invStd, x, gain, shift, i, mu, inv)
	}
}

// normalizeRow writes row i of y from the row's statistics, and of the
// caches where xhat is not nil.
func normalizeRow(y, xhat *tensor.Matrix, invStd []float64, x *tensor.Matrix, gain, shift []float64, i int, mu, inv float64) {
	row := x.Row(i)
	gain, shift, out := gain[:len(row)], shift[:len(row)], y.Row(i)[:len(row)]
	if xhat == nil {
		for j, v := range row {
			xh := (v - mu) * inv
			out[j] = float64(xh*gain[j]) + shift[j]
		}
		return
	}
	invStd[i] = inv
	xh := xhat.Row(i)[:len(row)]
	for j, v := range row {
		xh[j] = (v - mu) * inv
		out[j] = float64(xh[j]*gain[j]) + shift[j]
	}
}

// forwardRows normalizes each row independently, caching xhat and the
// inverse standard deviation for the backward pass.
func (ln *LayerNorm) forwardRows(lo, hi int) {
	layerNormRows(ln.y, ln.xhat, ln.invStd, ln.x, ln.Gain.W.Data, ln.Shift.W.Data, lo, hi)
}

func (ln *LayerNorm) bindBackward(dy *tensor.Matrix, _ bool) *tensor.Matrix {
	ln.dy = dy
	ln.dx = ln.arena.Get(dy.Rows, dy.Cols)
	return ln.dx
}

// backwardRows is the input gradient, a pure row map:
// dx = invStd/n * (n*dxhat - sum(dxhat) - xhat*sum(dxhat*xhat)), dxhat =
// dy*gain. Whole groups of eight rows go to tensor.LayerNormGradRows
// (avx512 only; it does none elsewhere); backwardLoops finishes the rows
// it leaves. Each row's own operation sequence either way, so no bit
// depends on the rung or on which rows share a group.
func (ln *LayerNorm) backwardRows(lo, hi int) {
	ln.backwardLoops(tensor.LayerNormGradRows(ln.dx, ln.dy, ln.xhat, ln.invStd, ln.Gain.W.Data, lo, hi), hi)
}

// backwardLoops is backwardRows' scalar definition over rows [lo, hi), the
// two sums of lnRows rows interleaved. The explicit conversions round each
// product before its add, so no build can fuse the sequence the kernel is
// held to.
func (ln *LayerNorm) backwardLoops(lo, hi int) {
	gain := ln.Gain.W.Data
	c := ln.Dim
	dyd, xhd := ln.dy.Data, ln.xhat.Data
	i := lo
	for end := lnGroupEnd(lo, hi, c); i < end; i += lnRows {
		g0, x0 := dyd[i*c:(i+1)*c], xhd[i*c:(i+1)*c]
		g1, x1 := dyd[(i+1)*c:(i+2)*c], xhd[(i+1)*c:(i+2)*c]
		g2, x2 := dyd[(i+2)*c:(i+3)*c], xhd[(i+2)*c:(i+3)*c]
		g3, x3 := dyd[(i+3)*c:(i+4)*c], xhd[(i+3)*c:(i+4)*c]
		var a0, a1, a2, a3, b0, b1, b2, b3 float64
		for j, gn := range gain[:c] {
			d0 := float64(g0[j] * gn)
			a0 += d0
			b0 += float64(d0 * x0[j])
			d1 := float64(g1[j] * gn)
			a1 += d1
			b1 += float64(d1 * x1[j])
			d2 := float64(g2[j] * gn)
			a2 += d2
			b2 += float64(d2 * x2[j])
			d3 := float64(g3[j] * gn)
			a3 += d3
			b3 += float64(d3 * x3[j])
		}
		ln.inputGradRow(i, a0, b0)
		ln.inputGradRow(i+1, a1, b1)
		ln.inputGradRow(i+2, a2, b2)
		ln.inputGradRow(i+3, a3, b3)
	}
	for ; i < hi; i++ {
		xh := ln.xhat.Row(i)
		var sum1, sum2 float64
		for j, g := range ln.dy.Row(i) {
			dxh := float64(g * gain[j])
			sum1 += dxh
			sum2 += float64(dxh * xh[j])
		}
		ln.inputGradRow(i, sum1, sum2)
	}
}

// inputGradRow writes row i of dx from its two sums.
func (ln *LayerNorm) inputGradRow(i int, sum1, sum2 float64) {
	n := float64(ln.Dim)
	dyr := ln.dy.Row(i)
	gain, xh, out := ln.Gain.W.Data[:len(dyr)], ln.xhat.Row(i)[:len(dyr)], ln.dx.Row(i)[:len(dyr)]
	scale := ln.invStd[i] / n // the same quotient for every element: divide once
	for j, g := range dyr {
		dxh := float64(g * gain[j])
		out[j] = scale * (float64(n*dxh) - sum1 - float64(xh[j]*sum2))
	}
}

// reductions: the gain and shift gradients reduce over the rows together,
// one 2·Dim accumulator per chunk of 256 rows (each column's two chains
// are per row, rows ascending).
func (ln *LayerNorm) reductions(rs []parallel.Reduction, rows int) []parallel.Reduction {
	return append(rs, parallel.Reduction{N: rows, Grain: 256, AccLen: 2 * ln.Dim})
}

// reduceBody is the gain and shift gradients' chunk body. Its definition
// is the loop below: per column, rows ascending, dGain += dy·xhat (the
// product rounded) and dShift += dy. On the SIMD rungs
// tensor.LayerNormParamGradAcc runs both chains with the accumulators in
// registers; on the go rung the loop does.
func (ln *LayerNorm) reduceBody(_, lo, hi int, acc []float64) {
	if tensor.LayerNormParamGradAcc(acc, ln.dy, ln.xhat, lo, hi) {
		return
	}
	c := ln.Dim
	dGain, dShift := acc[:c], acc[c:2*c]
	for i := lo; i < hi; i++ {
		xh := ln.xhat.Row(i)
		for j, g := range ln.dy.Row(i) {
			dGain[j] += float64(g * xh[j])
			dShift[j] += g
		}
	}
}

func (ln *LayerNorm) reduceMerge(_ int, acc []float64, _ bool) {
	dim := ln.Dim
	tensor.AddTo(ln.Gain.G.Data, acc[:dim])
	tensor.AddTo(ln.Shift.G.Data, acc[dim:2*dim])
}

// Params implements Layer.
func (ln *LayerNorm) Params() []*Param { return []*Param{ln.Gain, ln.Shift} }
