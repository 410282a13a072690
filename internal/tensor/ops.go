package tensor

import (
	"fmt"
	"sync"

	"meshgnn/internal/parallel"
)

// Kernel parallelization. The kernels come in two forms. A whole-matrix
// kernel (MatMul, MatMulATB, AddScaled, CloneInto) is one region on the
// intra-rank worker pool (internal/parallel): those whose iterations write
// disjoint output rows or elements use parallel.ForTask and are
// bitwise-identical to their serial forms for any thread count; one that
// reduces many input rows into one output (MatMulATB) is a parallel.Panels
// region carrying the reduction, whose fixed chunk schedule and in-order
// partial merge keep it bitwise-reproducible across thread counts. A
// row-range body (MatMulBiasRows, AddRowVectorRows, the *Acc reduction
// bodies) is the serial work of rows [lo, hi) and dispatches nothing: a
// region costs a worker wake (see package parallel, "region
// granularity"), so internal/nn composes the bodies of a whole MLP block
// into one region of its own instead of paying one per kernel. A
// row's bits never depend on which range it was computed in, so the two
// forms agree bitwise.
//
// Allocation discipline. Every kernel takes its destination as an argument
// (the "*Into" convention); the whole-matrix kernels bind their arguments
// to a pooled task struct rather than a closure, so a kernel call performs
// no heap allocation in steady state. Matrix.Clone is the one
// Matrix-returning convenience, for cold call sites.

// forGrain returns a For grain targeting ~16k flops per chunk so chunk
// dispatch overhead stays negligible for narrow rows.
func forGrain(workPerItem int) int {
	if workPerItem < 1 {
		workPerItem = 1
	}
	g := 16384 / workPerItem
	if g < 1 {
		g = 1
	}
	return g
}

// ReduceGrain returns the chunk grain of a row reduction costing
// workPerItem flops per row — in·n for MatMulATB, the column count for a
// column sum — from the problem shape only (never the thread count), as
// the fixed schedule requires: ~256k flops per partial, at least
// 64 rows.
func ReduceGrain(workPerItem int) int {
	if workPerItem < 1 {
		workPerItem = 1
	}
	g := 262144 / workPerItem
	if g < 64 {
		g = 64
	}
	return g
}

// --- GEMM kernels --------------------------------------------------------

type matMulTask struct{ dst, a, b *Matrix }

func (t *matMulTask) Run(lo, hi int) { MatMulBiasRows(t.dst, t.a, t.b, nil, lo, hi) }

// MatMulBiasRows computes rows [lo, hi) of dst = a·b + bias (a nil bias
// adds nothing): the linear layer, which MatMul and the layers of
// internal/nn run for every shape — dy·Wᵀ on the transpose. Its bits are
// the float64 product's one definition (pack.go) on every rung and for
// every input; the tiles read b's rows in place (panel stride 8, k stride
// N).
func MatMulBiasRows(dst, a, b *Matrix, bias []float64, lo, hi int) {
	k, n := a.Cols, b.Cols
	if k != b.Rows || dst.Cols != n || (bias != nil && len(bias) != n) {
		panic(fmt.Sprintf("tensor: MatMulBiasRows shape mismatch (%dx%d)·(%dx%d)+bias(%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, len(bias), dst.Rows, dst.Cols))
	}
	if n == 0 || lo >= hi {
		return
	}
	// The tiles index raw memory: hold them to the slices' bounds first.
	if lo < 0 || hi*k > len(a.Data) || hi*n > len(dst.Data) || k*n > len(b.Data) {
		panic(fmt.Sprintf("tensor: MatMulBiasRows rows [%d, %d) outside (%dx%d)·(%dx%d)->(%dx%d)",
			lo, hi, a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	if k == 0 {
		emptyProduct(dst, bias, lo, hi)
		return
	}
	g := tileGrid[float64]{
		kc: int64(k),
		a:  a.Data, lda: k, astride: 1,
		b: b.Data, panelStride: packNR, bstride: n,
		c: dst.Data, ldc: n, n: n, bias: bias,
	}
	g.sweep(lo, hi, 0, (n+packNR-1)/packNR)
}

// emptyProduct writes rows [lo, hi) of a product whose inner dimension is
// 0: every element is the definition's +0, plus its column's bias.
func emptyProduct(dst *Matrix, bias []float64, lo, hi int) {
	clear(dst.Data[lo*dst.Cols : hi*dst.Cols])
	if bias != nil {
		AddRowVectorRows(dst, bias, lo, hi)
	}
}

var matMulPool = sync.Pool{New: func() any { return new(matMulTask) }}

// MatMul computes dst = a·b. dst must be a.Rows×b.Cols and must not alias
// a or b. The rows are partitioned over workers, each dst row written by
// exactly one.
func MatMul(dst, a, b *Matrix) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMul shape mismatch (%dx%d)·(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	t := matMulPool.Get().(*matMulTask)
	t.dst, t.a, t.b = dst, a, b
	parallel.ForTask(a.Rows, forGrain(a.Cols*b.Cols), t)
	*t = matMulTask{}
	matMulPool.Put(t)
}

// matMulATBTask is MatMulATB's region: panels of one chunk each that
// compute nothing, carrying the one reduction.
type matMulATBTask struct {
	dst, a, b *Matrix
	rs        [1]parallel.Reduction
	panels    parallel.Panels
}

func (t *matMulATBTask) Run(lo, hi int)                     {}
func (t *matMulATBTask) Body(_, lo, hi int, acc []float64)  { MatMulATBAcc(acc, t.a, t.b, lo, hi) }
func (t *matMulATBTask) Merge(_ int, acc []float64, _ bool) { AddTo(t.dst.Data, acc) }

// MatMulATBAcc accumulates the contribution of rows [lo, hi) to aᵀ·b into
// acc (a.Cols×b.Cols, row-major): the chunk body of MatMulATB's reduction.
// A caller reproducing MatMulATB's bits chunks the rows by
// ReduceGrain(a.Cols·b.Cols) and merges zeroed per-chunk accumulators in
// ascending order. Per element its bits are the float64 product's one
// definition (pack.go): one fused multiply-add per row, rows ascending,
// onto whatever acc holds on entry — on every rung, through the tiles
// walking DOWN the rows via strides (a's columns become tile rows, b's
// rows are already panel-shaped). So a chunk may be split at any row:
// calls over [lo, m) then [m, hi) into one acc give the bits of one call
// over [lo, hi).
func MatMulATBAcc(acc []float64, a, b *Matrix, lo, hi int) {
	in, n := a.Cols, b.Cols
	if a.Rows != b.Rows || len(acc) != in*n {
		panic(fmt.Sprintf("tensor: MatMulATBAcc shape mismatch (%dx%d)ᵀ·(%dx%d)->acc(%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, len(acc)))
	}
	// The tiles index raw memory: hold them to the slices' bounds first.
	if lo < 0 || lo > hi || hi > a.Rows || hi*in > len(a.Data) || hi*n > len(b.Data) {
		panic(fmt.Sprintf("tensor: MatMulATBAcc rows [%d, %d) outside (%dx%d)ᵀ·(%dx%d)",
			lo, hi, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if lo == hi || in == 0 || n == 0 {
		return
	}
	g := tileGrid[float64]{
		kc: int64(hi - lo),
		a:  a.Data[lo*in:], lda: 1, astride: in,
		b: b.Data[lo*n:], panelStride: packNR, bstride: n,
		c: acc, ldc: n, n: n, acc: 1,
	}
	g.sweep(0, in, 0, (n+packNR-1)/packNR)
}

var matMulATBPool = sync.Pool{New: func() any { return new(matMulATBTask) }}

// MatMulATB computes dst = aᵀ·b, used for weight gradients (dW = xᵀ·dy).
// dst must be a.Cols×b.Cols. Every input row contributes to every output
// row, so this is a true reduction: row chunks accumulate into private
// dst-shaped partials that merge in fixed chunk order.
func MatMulATB(dst, a, b *Matrix) {
	if a.Rows != b.Rows || dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulATB shape mismatch (%dx%d)ᵀ·(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	dst.Zero()
	in, n := a.Cols, b.Cols
	grain := ReduceGrain(in * n)
	t := matMulATBPool.Get().(*matMulATBTask)
	t.dst, t.a, t.b = dst, a, b
	t.rs[0] = parallel.Reduction{N: a.Rows, Grain: grain, AccLen: in * n}
	t.panels.For(a.Rows, grain, t.rs[:], t)
	t.dst, t.a, t.b = nil, nil, nil
	matMulATBPool.Put(t)
}

// --- Row/column kernels --------------------------------------------------

// AddRowVectorRows adds the length-Cols vector v to rows [lo, hi) of m in
// place: the bias add of MatMulBiasRows' definition.
func AddRowVectorRows(m *Matrix, v []float64, lo, hi int) {
	if len(v) != m.Cols {
		panic("tensor: AddRowVectorRows length mismatch")
	}
	w := vecLanes()
	for i := lo; i < hi; i++ {
		add64(m.Data[i*m.Cols:(i+1)*m.Cols], v, w)
	}
}

// ColSumsAcc accumulates the column sums of rows [lo, hi) of m into acc:
// the chunk body of a bias-gradient reduction, chunked by
// ReduceGrain(m.Cols). Its definition is addScalar row by row, rows
// ascending: per column one chain of rounded adds. On the SIMD rungs the
// column-accumulate kernel (colacc_amd64.s) runs that chain with the
// accumulators in registers down the whole range, up to 32 columns a
// pass; the pure-Go rung runs addScalar.
func ColSumsAcc(acc []float64, m *Matrix, lo, hi int) {
	cols := m.Cols
	acc = acc[:cols]
	if colAcc(m.Data, nil, acc, nil, cols, lo, hi) {
		return
	}
	for i := lo; i < hi; i++ {
		addScalar(acc, m.Data[i*cols:(i+1)*cols], 0, cols)
	}
}

// colAcc runs the column-accumulate kernel of the rung over rows [lo, hi)
// of a (cols wide): sum[j] += a[i][j] and, where b is not nil, dot[j] +=
// a[i][j]·b[i][j]. It reports false, having done nothing, on the go rung.
func colAcc(a, b, sum, dot []float64, cols, lo, hi int) bool {
	if tier < tierAVX2 {
		return false
	}
	if hi <= lo || cols == 0 {
		return true
	}
	// The kernel reads and writes these unchecked.
	_, _ = a[lo*cols:hi*cols], sum[cols-1]
	pa, ps := &a[lo*cols], &sum[0]
	var pb, pd *float64
	if b != nil {
		_, _ = b[lo*cols:hi*cols], dot[cols-1]
		pb, pd = &b[lo*cols], &dot[0]
	}
	if tier == tierAVX512 {
		colAcc64x8(int64(hi-lo), int64(cols), pa, pb, ps, pd)
	} else {
		colAcc64(int64(hi-lo), int64(cols), pa, pb, ps, pd)
	}
	return true
}

// --- Element-wise kernels ------------------------------------------------

// elemGrain is the For grain for 1-flop element-wise kernels.
const elemGrain = 8192

type addScaledTask struct {
	dst, src *Matrix
	alpha    float64
}

func (t *addScaledTask) Run(lo, hi int) {
	d, s := t.dst.Data, t.src.Data
	if t.alpha == 1 {
		// Residual connections and gradient accumulations use alpha == 1;
		// the plain += form saves a multiply per element and is bitwise
		// identical (1*x == x exactly).
		for i := lo; i < hi; i++ {
			d[i] += s[i]
		}
		return
	}
	alpha := t.alpha
	for i := lo; i < hi; i++ {
		d[i] += float64(alpha * s[i])
	}
}

var addScaledPool = sync.Pool{New: func() any { return new(addScaledTask) }}

// AddScaled computes dst += alpha*src element-wise, with a fast path for
// the ubiquitous alpha == 1 accumulation.
func AddScaled(dst *Matrix, alpha float64, src *Matrix) {
	if dst.Rows != src.Rows || dst.Cols != src.Cols {
		panic("tensor: AddScaled shape mismatch")
	}
	t := addScaledPool.Get().(*addScaledTask)
	t.dst, t.src, t.alpha = dst, src, alpha
	parallel.ForTask(len(dst.Data), elemGrain, t)
	*t = addScaledTask{}
	addScaledPool.Put(t)
}

// AddTo computes dst[i] += src[i] over two slices of one length: the
// residual add as a row-range body, for callers that fold it into a region
// of their own (a row panel of an MLP block) instead of dispatching
// AddScaled over the whole matrix. It runs on the add kernels of the
// elementwise tier, one rounded add per element, so the bits are the
// scalar loop's wherever a caller cuts the slices.
func AddTo[T float32 | float64](dst, src []T) {
	if len(dst) != len(src) {
		panic("tensor: AddTo length mismatch")
	}
	switch d := any(dst).(type) {
	case []float32:
		add32(d, any(src).([]float32), vecLanes32())
	case []float64:
		add64(d, any(src).([]float64), vecLanes())
	}
}

// add64 is add32 for float64 (addBlock64, addBlock64x8).
func add64(dst, v []float64, w int) {
	j := 0
	if w > 0 && len(v) >= w {
		j = len(v) &^ (w - 1)
		if w == 8 {
			addBlock64x8(int64(j), &dst[0], &v[0])
		} else {
			addBlock64(int64(j), &dst[0], &v[0])
		}
	}
	addScalar(dst, v, j, len(v))
}

// --- Copy kernels --------------------------------------------------------

type cloneIntoTask struct{ dst, src *Matrix }

func (t *cloneIntoTask) Run(lo, hi int) {
	copy(t.dst.Data[lo:hi], t.src.Data[lo:hi])
}

var cloneIntoPool = sync.Pool{New: func() any { return new(cloneIntoTask) }}

// CloneInto copies src into dst (shapes must match): the workspace-reuse
// form of Clone.
func CloneInto(dst, src *Matrix) {
	if dst.Rows != src.Rows || dst.Cols != src.Cols {
		panic(fmt.Sprintf("tensor: CloneInto shape mismatch %dx%d vs %dx%d",
			dst.Rows, dst.Cols, src.Rows, src.Cols))
	}
	t := cloneIntoPool.Get().(*cloneIntoTask)
	t.dst, t.src = dst, src
	parallel.ForTask(len(dst.Data), elemGrain, t)
	*t = cloneIntoTask{}
	cloneIntoPool.Put(t)
}
