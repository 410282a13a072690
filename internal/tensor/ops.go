package tensor

import (
	"fmt"
	"math"
	"sync"

	"meshgnn/internal/parallel"
)

// Kernel parallelization. The kernels come in two forms. A whole-matrix
// kernel (MatMul, MatMulATB, GatherRows, AddScaled, …) is one region on the
// intra-rank worker pool (internal/parallel): those whose iterations write
// disjoint output rows or elements use parallel.ForTask and are
// bitwise-identical to their serial forms for any thread count; those that
// reduce many input rows into one output (MatMulATB) use
// parallel.ReduceWith, whose fixed chunk schedule and in-order partial
// merge keep them bitwise-reproducible across thread counts in
// deterministic mode. A row-range body (MatMulBiasRows, AddRowVectorRows,
// the *Acc reduction bodies) is the serial work of rows [lo, hi) and
// dispatches nothing: a region costs a worker wake (see package parallel,
// "region granularity"), so internal/nn composes the bodies of a whole MLP
// block into one region of its own instead of paying one per kernel. A
// row's bits never depend on which range it was computed in, so the two
// forms agree bitwise.
//
// Allocation discipline. Every kernel takes its destination as an argument
// (the "*Into" convention — MatMul, GatherRows, and friends have always
// been Into-style); the whole-matrix kernels bind their arguments to a
// pooled task struct rather than a closure, so a kernel call performs no
// heap allocation in steady state. Matrix-returning conveniences (HCat,
// SplitCols, Clone) remain as thin allocating wrappers over the Into
// kernels for cold call sites.

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

// ReduceGrain returns the Reduce grain of a row reduction costing
// workPerItem flops per row — in·n for MatMulATB, the column count for a
// column sum — from the problem shape only (never the thread count), as
// the deterministic schedule requires: ~256k flops per partial, at least
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

type matMulATBTask struct{ dst, a, b *Matrix }

func (t *matMulATBTask) Body(lo, hi int, acc []float64) { MatMulATBAcc(acc, t.a, t.b, lo, hi) }

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

func (t *matMulATBTask) Merge(acc []float64) {
	for i, v := range acc {
		t.dst.Data[i] += v
	}
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
	t := matMulATBPool.Get().(*matMulATBTask)
	t.dst, t.a, t.b = dst, a, b
	parallel.ReduceWith(a.Rows, ReduceGrain(in*n), in*n, t)
	*t = matMulATBTask{}
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

type addTask struct{ dst, a, b *Matrix }

func (t *addTask) Run(lo, hi int) {
	d, a, b := t.dst.Data, t.a.Data, t.b.Data
	for i := lo; i < hi; i++ {
		d[i] = a[i] + b[i]
	}
}

var addPool = sync.Pool{New: func() any { return new(addTask) }}

// Add computes dst = a + b element-wise; all three must share a shape.
// dst may alias a or b.
func Add(dst, a, b *Matrix) {
	if a.Rows != b.Rows || a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != a.Cols {
		panic("tensor: Add shape mismatch")
	}
	t := addPool.Get().(*addTask)
	t.dst, t.a, t.b = dst, a, b
	parallel.ForTask(len(dst.Data), elemGrain, t)
	*t = addTask{}
	addPool.Put(t)
}

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

// --- Copy / gather / scatter kernels -------------------------------------

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

type copyViewIntoTask struct {
	dst *Matrix
	src View
}

func (t *copyViewIntoTask) Run(lo, hi int) {
	for i := lo; i < hi; i++ {
		copy(t.dst.Row(i), t.src.Row(i))
	}
}

var copyViewIntoPool = sync.Pool{New: func() any { return new(copyViewIntoTask) }}

// CopyViewInto materializes a column view into dst (shapes must match) —
// the Into form of one SplitCols output.
func CopyViewInto(dst *Matrix, src View) {
	if dst.Rows != src.Rows || dst.Cols != src.Cols {
		panic(fmt.Sprintf("tensor: CopyViewInto shape mismatch %dx%d vs %dx%d",
			dst.Rows, dst.Cols, src.Rows, src.Cols))
	}
	t := copyViewIntoPool.Get().(*copyViewIntoTask)
	t.dst, t.src = dst, src
	parallel.ForTask(dst.Rows, forGrain(dst.Cols), t)
	*t = copyViewIntoTask{}
	copyViewIntoPool.Put(t)
}

type gatherRowsTask struct {
	dst, src *Matrix
	idx      []int
}

func (t *gatherRowsTask) Run(lo, hi int) {
	for k := lo; k < hi; k++ {
		copy(t.dst.Row(k), t.src.Row(t.idx[k]))
	}
}

var gatherRowsPool = sync.Pool{New: func() any { return new(gatherRowsTask) }}

// GatherRows copies rows src[idx[k]] into dst[k] for each k.
// dst must have len(idx) rows and src.Cols columns. Indices are validated
// up front so a bad index fails with a diagnosable error instead of a
// slice panic inside a worker.
func GatherRows(dst, src *Matrix, idx []int) {
	if dst.Rows != len(idx) || dst.Cols != src.Cols {
		panic("tensor: GatherRows shape mismatch")
	}
	for k, i := range idx {
		if i < 0 || i >= src.Rows {
			panic(fmt.Sprintf("tensor: GatherRows index %d out of range [0,%d) at position %d",
				i, src.Rows, k))
		}
	}
	t := gatherRowsPool.Get().(*gatherRowsTask)
	t.dst, t.src, t.idx = dst, src, idx
	parallel.ForTask(len(idx), forGrain(src.Cols), t)
	*t = gatherRowsTask{}
	gatherRowsPool.Put(t)
}

// ScatterAddRows adds src[k] into dst[idx[k]] for each k: the adjoint of
// GatherRows. Arbitrary idx values may collide on a destination row, so
// this general form runs serially in k order; receiver-grouped workloads
// should use ScatterAddRowsGrouped, which parallelizes without atomics.
func ScatterAddRows(dst, src *Matrix, idx []int) {
	if src.Rows != len(idx) || dst.Cols != src.Cols {
		panic("tensor: ScatterAddRows shape mismatch")
	}
	for k, i := range idx {
		if i < 0 || i >= dst.Rows {
			panic(fmt.Sprintf("tensor: ScatterAddRows index %d out of range [0,%d) at position %d",
				i, dst.Rows, k))
		}
	}
	for k, i := range idx {
		drow := dst.Row(i)
		srow := src.Row(k)
		for j, v := range srow {
			drow[j] += v
		}
	}
}

type scatterGroupedTask struct {
	dst          *Matrix
	src          View
	start, order []int
}

func (t *scatterGroupedTask) Run(lo, hi int) {
	for i := lo; i < hi; i++ {
		drow := t.dst.Row(i)
		for p := t.start[i]; p < t.start[i+1]; p++ {
			k := p
			if t.order != nil {
				k = t.order[p]
			}
			srow := t.src.Row(k)
			for j, v := range srow {
				drow[j] += v
			}
		}
	}
}

var scatterGroupedPool = sync.Pool{New: func() any { return new(scatterGroupedTask) }}

// ScatterAddRowsGrouped adds src rows into dst following a receiver-grouped
// CSR layout: for destination row i, the source rows order[start[i]:start[i+1]]
// accumulate into dst[i] in listed order. order == nil means the identity
// (source rows start[i]..start[i+1] are already receiver-contiguous).
//
// Because each destination row is owned by exactly one worker, the scatter
// parallelizes without atomics, and because each row's contributions apply
// in listed order, the result is bitwise-identical to the equivalent
// serial ScatterAddRows whenever order lists source rows in ascending
// order per receiver.
func ScatterAddRowsGrouped(dst, src *Matrix, start, order []int) {
	ScatterAddRowsGroupedView(dst, src.Full(), start, order)
}

// ScatterAddRowsGroupedView is ScatterAddRowsGrouped with a column view as
// the source, so a column block of a wide gradient matrix scatters without
// being copied out first.
func ScatterAddRowsGroupedView(dst *Matrix, src View, start, order []int) {
	if len(start) != dst.Rows+1 {
		panic(fmt.Sprintf("tensor: ScatterAddRowsGrouped start length %d, want %d",
			len(start), dst.Rows+1))
	}
	if src.Cols != dst.Cols {
		panic(fmt.Sprintf("tensor: ScatterAddRowsGrouped width %d vs %d", src.Cols, dst.Cols))
	}
	limit := src.Rows
	if order != nil {
		limit = len(order)
		for p, k := range order {
			if k < 0 || k >= src.Rows {
				panic(fmt.Sprintf("tensor: ScatterAddRowsGrouped order index %d out of range [0,%d) at position %d",
					k, src.Rows, p))
			}
		}
	}
	if start[0] < 0 || start[dst.Rows] > limit {
		panic(fmt.Sprintf("tensor: ScatterAddRowsGrouped start range [%d,%d] outside %d source entries",
			start[0], start[dst.Rows], limit))
	}
	for i := 0; i < dst.Rows; i++ {
		if start[i] > start[i+1] {
			panic(fmt.Sprintf("tensor: ScatterAddRowsGrouped start not monotonic at row %d (%d > %d)",
				i, start[i], start[i+1]))
		}
	}
	t := scatterGroupedPool.Get().(*scatterGroupedTask)
	t.dst, t.src, t.start, t.order = dst, src, start, order
	parallel.ForTask(dst.Rows, forGrain(2*dst.Cols), t)
	*t = scatterGroupedTask{}
	scatterGroupedPool.Put(t)
}

// --- Concatenation / splitting -------------------------------------------

type hcatTask struct {
	dst *Matrix
	// ms is a pooled copy of the source table, so the caller's variadic
	// slice never escapes and the kernel stays allocation-free.
	ms []*Matrix
}

func (t *hcatTask) Run(lo, hi int) {
	for i := lo; i < hi; i++ {
		drow := t.dst.Row(i)
		off := 0
		for _, m := range t.ms {
			copy(drow[off:off+m.Cols], m.Row(i))
			off += m.Cols
		}
	}
}

var hcatPool = sync.Pool{New: func() any { return new(hcatTask) }}

// HCatInto concatenates the given matrices horizontally into dst, which
// must have the shared row count and the summed column count.
func HCatInto(dst *Matrix, ms ...*Matrix) {
	cols := 0
	for _, m := range ms {
		if m.Rows != dst.Rows {
			panic("tensor: HCatInto row mismatch")
		}
		cols += m.Cols
	}
	if cols != dst.Cols {
		panic(fmt.Sprintf("tensor: HCatInto columns %d, want %d", dst.Cols, cols))
	}
	t := hcatPool.Get().(*hcatTask)
	t.dst = dst
	t.ms = append(t.ms[:0], ms...)
	parallel.ForTask(dst.Rows, forGrain(dst.Cols), t)
	t.dst = nil
	clear(t.ms)
	t.ms = t.ms[:0]
	hcatPool.Put(t)
}

// HCat concatenates the given matrices horizontally (all must share Rows),
// allocating the result.
func HCat(ms ...*Matrix) *Matrix {
	if len(ms) == 0 {
		return New(0, 0)
	}
	rows := ms[0].Rows
	cols := 0
	for _, m := range ms {
		cols += m.Cols
	}
	out := New(rows, cols)
	HCatInto(out, ms...)
	return out
}

// SplitColsView splits m horizontally into len(widths) column views; the
// zero-copy inverse of HCat. The views alias m.
func SplitColsView(m *Matrix, widths ...int) []View {
	total := 0
	for _, w := range widths {
		total += w
	}
	if total != m.Cols {
		panic("tensor: SplitColsView widths do not sum to Cols")
	}
	out := make([]View, len(widths))
	off := 0
	for k, w := range widths {
		out[k] = m.View(off, w)
		off += w
	}
	return out
}

// SplitCols splits m horizontally into len(widths) freshly allocated
// matrices whose column counts are widths[i]; the copying inverse of HCat.
// Hot paths use Matrix.View / SplitColsView instead.
func SplitCols(m *Matrix, widths ...int) []*Matrix {
	views := SplitColsView(m, widths...)
	out := make([]*Matrix, len(views))
	for k, v := range views {
		out[k] = New(v.Rows, v.Cols)
		CopyViewInto(out[k], v)
	}
	return out
}

// --- Reductions to scalars -----------------------------------------------

type frobeniusTask struct {
	m *Matrix
	s float64
}

func (t *frobeniusTask) Body(lo, hi int, acc []float64) {
	d := t.m.Data
	for i := lo; i < hi; i++ {
		v := d[i]
		acc[0] += float64(v * v)
	}
}

func (t *frobeniusTask) Merge(acc []float64) { t.s += acc[0] }

var frobeniusPool = sync.Pool{New: func() any { return new(frobeniusTask) }}

// Frobenius returns the Frobenius norm of m.
func Frobenius(m *Matrix) float64 {
	t := frobeniusPool.Get().(*frobeniusTask)
	t.m, t.s = m, 0
	parallel.ReduceWith(len(m.Data), ReduceGrain(2), 1, t)
	s := t.s
	*t = frobeniusTask{}
	frobeniusPool.Put(t)
	return math.Sqrt(s)
}
