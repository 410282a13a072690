package nn

import (
	"fmt"

	"meshgnn/internal/parallel"
	"meshgnn/internal/tensor"
)

// panelRows is the height of the row panels a block is evaluated in: a
// panel goes through every layer of the block before the next panel
// starts, so a layer reads what the previous one just wrote while it is
// still in cache (two 64×32 float64 scratch panels are 32 KiB). A multiple
// of 4, the row tile of the GEMM microkernels. Any height yields
// the same bits — every layer is a row map whose per-row operation
// sequence is fixed; 32, 64 and 128 measure within 3 % of each other, and
// the smaller panels split a 512-row node block over more threads.
const panelRows = 64

// panels returns the number of row panels covering rows.
func panels(rows int) int { return (rows + panelRows - 1) / panelRows }

// elem is the element type of a block's activations.
type elem interface{ float32 | float64 }

// RowMap is a caller-supplied stage at the head or the tail of a block's
// panel loop — what would otherwise be a matrix and a parallel region of
// its own either side of the block. Rows is handed p, rows [r0, r1) of the
// block's input or output, contiguous and row-major. A head fills p: the
// forward input rows (a gather or a concatenation the block then consumes
// while it is in cache, never materialised at full height by the
// forward-only evaluators), or the output-gradient rows of a backward
// pass. A tail finishes p, the rows the block just produced: it may
// update them in place (a residual add) or scatter them elsewhere. A
// RowMap must be a row map in the chain's sense — rows [r0, r1) depend on
// nothing another panel writes — because panels run concurrently and in
// any order; its state is shared by all of them, so Rows must not write
// it.
type RowMap[T elem] interface {
	Rows(p []T, r0, r1 int)
}

// PreHead is the head of a block run from its first activation on
// (MLP.ForwardPre, InferMLP.InferPre): the caller evaluates the block's
// first Linear itself, by whatever decomposition of x·W + b it has (see
// SplitLinear), and PreRows writes rows [r0, r1) of that Linear's output y,
// its pre-activation. Nothing holds the Linear's input: the training
// block's backward (MLP.BackwardPre, MLP.BackwardParts) takes the inputs
// of the parts from its caller. The RowMap rules hold: rows [r0, r1)
// depend on nothing another panel writes, and the head's state is shared
// by every panel.
type PreHead[T elem] interface {
	PreRows(y []T, r0, r1 int)
}

// rowLayer is a Layer that is a pure row map with row-reduced parameter
// gradients, split into the pieces a chain schedules: a serial bind on
// the caller (shape checks, arena requests, the weight transpose), the
// row-range bodies that run inside the chain's region, and the layer's
// parameter reductions.
type rowLayer interface {
	Layer
	// bindForward acquires the output (and backward caches) for input x
	// and returns the output. owned reports that x is the chain's own
	// temporary, which the layer may overwrite.
	bindForward(x *tensor.Matrix, owned bool) *tensor.Matrix
	// forwardRows computes rows [lo, hi) of the bound output.
	forwardRows(lo, hi int)
	// bindBackward acquires the input gradient for output gradient dy,
	// keeping dy for the reductions; owned as in bindForward.
	bindBackward(dy *tensor.Matrix, owned bool) *tensor.Matrix
	// backwardRows computes rows [lo, hi) of the bound input gradient.
	backwardRows(lo, hi int)
	// reductions appends the layer's parameter-gradient reductions over a
	// block of rows rows, each with the chunk grain the layer has always
	// reduced with; the chain sets the block's offset. reduceBody and
	// reduceMerge address them by position (which) and take absolute row
	// numbers.
	reductions(rs []parallel.Reduction, rows int) []parallel.Reduction
	reduceBody(which, lo, hi int, acc []float64)
	reduceMerge(which int, acc []float64, last bool)
}

// chain evaluates a sequence of row layers as a fused block: each pass is
// ONE parallel region over row panels. The forward pass carries a panel
// through every layer; the backward pass carries it back through every
// layer in reverse order (the input gradient is again a row map, leaving
// each layer's output gradient in place) and carries the block's
// parameter reductions in the same region (parallel.Panels): a reduction
// chunk advances over its rows as their panels complete, reading the
// layer inputs and output gradients the panel just touched while they are
// still in cache. A region costs a worker wake (see package parallel,
// "region granularity") and one layer over a few thousand rows is tens of
// microseconds: dispatched per layer, the workers arrive after the caller
// has done the work.
//
// Either pass takes an optional head and tail (RowMap), run on each panel
// before its first layer and after its last, inside the same region. The
// matrices they address stay at full height here — the forward head fills
// the block's cached input and the backward head the output gradient,
// which the parameter reductions read — so what a head or tail saves a
// training pass is its region and the second trip through memory, not the
// matrix.
//
// Nothing here changes a bit relative to evaluating layer by layer. The
// forward and input-gradient passes are row maps; each reduction keeps
// its own chunk grain, runs per sample block, advances a chunk in pieces
// (every body is one chain per element, rows ascending, onto its
// accumulator), and merges in ascending chunk order.
type chain struct {
	layers []rowLayer
	rows   int

	// The pass in flight: its head and tail, and the full-height matrices
	// they are handed rows of (the pass's first input and last output);
	// for a forward from the first activation on, the head that writes the
	// first layer's output (first) in its place.
	head, tail RowMap[float64]
	pre        PreHead[float64]
	in, out    *tensor.Matrix
	first      *tensor.Matrix

	// The block's reductions, (sample block, layer, which) by index, and
	// the region state that carries them, accumulators included: kept
	// across steps, so a steady-state backward allocates nothing.
	rs     []parallel.Reduction
	refs   []redRef
	panels parallel.Panels
}

// redRef locates one reduction of the block: which reduction of which
// layer.
type redRef struct {
	l     rowLayer
	which int
}

func newChain(layers ...rowLayer) *chain { return &chain{layers: layers} }

type (
	chainForward  chain
	chainBackward chain
)

// forward evaluates the block on x. With a head, x is the full-height
// input the head fills panel by panel.
func (c *chain) forward(x *tensor.Matrix, head, tail RowMap[float64]) *tensor.Matrix {
	c.head, c.in = head, x
	return c.run(c.bind(x, 0, false, tail))
}

// forwardPre evaluates the block from its second layer on, over the
// rows×Out output of its first Linear, which pre writes panel by panel:
// nothing holds the Linear's input.
func (c *chain) forwardPre(rows int, pre PreHead[float64], tail RowMap[float64]) *tensor.Matrix {
	c.pre = pre
	c.first = c.layers[0].(*Linear).bindPre(rows)
	return c.run(c.bind(c.first, 1, true, tail))
}

// bind binds layers[from:] on x — owned as in rowLayer.bindForward — and
// sets up the pass the caller is about to run; it returns the output.
func (c *chain) bind(x *tensor.Matrix, from int, owned bool, tail RowMap[float64]) *tensor.Matrix {
	c.rows = x.Rows
	for _, l := range c.layers[from:] {
		x = l.bindForward(x, owned)
		// A layer's output is the chain's to overwrite unless the layer's
		// own backward reads it back, as an ELU's does.
		_, readsBack := l.(*ELU)
		owned = !readsBack
	}
	c.out, c.tail = x, tail
	return x
}

// run carries the panels through the bound pass as one region.
func (c *chain) run(y *tensor.Matrix) *tensor.Matrix {
	parallel.ForTask(panels(c.rows), 1, (*chainForward)(c))
	c.done()
	return y
}

// done drops the pass's matrices and stages.
func (c *chain) done() {
	c.in, c.out, c.first, c.head, c.pre, c.tail = nil, nil, nil, nil, nil, nil
}

// chainPair is two bound forward passes as one region: panels [0, n) of
// the first block, then the second's.
type chainPair struct{ a, b *chain }

func (p *chainPair) Run(lo, hi int) {
	n := panels(p.a.rows)
	if lo < n {
		(*chainForward)(p.a).Run(lo, min(hi, n))
	}
	if hi > n {
		(*chainForward)(p.b).Run(max(lo, n)-n, hi-n)
	}
}

// headRows and tailRows hand rows [r0, r1) of the pass's first input and
// last output to its head and tail, if any.
func (c *chain) headRows(r0, r1 int) {
	if c.head != nil {
		c.head.Rows(c.in.Data[r0*c.in.Cols:r1*c.in.Cols], r0, r1)
	}
}

func (c *chain) tailRows(r0, r1 int) {
	if c.tail != nil {
		c.tail.Rows(c.out.Data[r0*c.out.Cols:r1*c.out.Cols], r0, r1)
	}
}

// Run carries panels [lo, hi) through the head, every layer and the tail;
// with a PreHead, through it and every layer after the first.
func (c *chainForward) Run(lo, hi int) {
	layers := c.layers
	if c.pre != nil {
		layers = layers[1:]
	}
	for p := lo; p < hi; p++ {
		r0, r1 := p*panelRows, min((p+1)*panelRows, c.rows)
		if c.pre != nil {
			k := c.first.Cols
			c.pre.PreRows(c.first.Data[r0*k:r1*k], r0, r1)
		} else {
			(*chain)(c).headRows(r0, r1)
		}
		for _, l := range layers {
			l.forwardRows(r0, r1)
		}
		(*chain)(c).tailRows(r0, r1)
	}
}

// backward propagates dy, batch vertically stacked sample gradients,
// through the block. The input gradient is a row map over the full stack;
// the parameter reductions — whose fixed chunk schedule derives from the
// row count — run per sample block, merged in ascending order, so each
// block's reduction geometry, and hence every accumulated bit, matches the
// sequential per-sample oracle exactly. A head fills rows of dy (all of
// them, or those the caller has not already written) before the panel's
// layers read them; a tail is handed the input-gradient rows.
func (c *chain) backward(dy *tensor.Matrix, batch int, head, tail RowMap[float64]) *tensor.Matrix {
	if dy.Rows%batch != 0 {
		panic(fmt.Sprintf("nn: batched backward rows %d not divisible by batch %d", dy.Rows, batch))
	}
	c.rows, c.in = dy.Rows, dy
	owned := false
	for i := len(c.layers) - 1; i >= 0; i-- {
		dy = c.layers[i].bindBackward(dy, owned)
		owned = true
	}

	per := c.rows / batch
	c.rs, c.refs = c.rs[:0], c.refs[:0]
	for b := 0; b < batch; b++ {
		for _, l := range c.layers {
			n := len(c.rs)
			c.rs = l.reductions(c.rs, per)
			for which := range c.rs[n:] {
				c.rs[n+which].Off = b * per
				c.refs = append(c.refs, redRef{l: l, which: which})
			}
		}
	}
	c.out, c.head, c.tail = dy, head, tail
	c.panels.For(c.rows, panelRows, c.rs, (*chainBackward)(c))
	c.in, c.out, c.head, c.tail = nil, nil, nil, nil
	return dy
}

// Run carries panels [lo, hi) of the output gradient through the head,
// back through every layer, and through the tail.
func (c *chainBackward) Run(lo, hi int) {
	for p := lo; p < hi; p++ {
		r0, r1 := p*panelRows, min((p+1)*panelRows, c.rows)
		(*chain)(c).headRows(r0, r1)
		for i := len(c.layers) - 1; i >= 0; i-- {
			c.layers[i].backwardRows(r0, r1)
		}
		(*chain)(c).tailRows(r0, r1)
	}
}

// Body implements parallel.PanelReducer.
func (c *chainBackward) Body(k, lo, hi int, acc []float64) {
	r := c.refs[k]
	r.l.reduceBody(r.which, lo, hi, acc)
}

// Merge implements parallel.PanelReducer.
func (c *chainBackward) Merge(k int, acc []float64, last bool) {
	r := c.refs[k]
	r.l.reduceMerge(r.which, acc, last)
}
