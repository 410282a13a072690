package tensor

import (
	"fmt"
	"sync"

	"meshgnn/internal/parallel"
)

// float32 kernels for the forward-only serving twin. The set is
// deliberately the forward closure only — GEMM, bias add, residual add,
// concatenation — with no gradient-side counterparts; training stays in
// float64. Like the f64 kernels, every op works on disjoint output rows
// with a fixed per-row accumulation order — as one parallel.ForTask region
// or, for the *Rows bodies, as the serial work of a row range inside the
// caller's region — so f32 serving results are bitwise-reproducible across
// thread counts too (the tolerance gate against the f64 oracle bounds the
// precision loss, not run-to-run noise).

type matMul32Task struct{ dst, a, b *Matrix32 }

func (t *matMul32Task) Run(lo, hi int) { MatMul32BiasRows(t.dst, t.a, t.b, nil, lo, hi) }

// MatMul32BiasRows computes rows [lo, hi) of dst = a·b + bias (a nil bias
// adds nothing): the float32 linear layer, for every shape. On the SIMD
// rungs it is the s-tiles' one sequence per element (pack.go), reading b's
// rows in place (panel stride 16, k stride N); the go rung runs mulRows32.
// dst and a are indexed by the same row numbers and may be row-block
// headers.
func MatMul32BiasRows(dst, a, b *Matrix32, bias []float32, lo, hi int) {
	k, n := a.Cols, b.Cols
	if k != b.Rows || dst.Cols != n || (bias != nil && len(bias) != n) {
		panic(fmt.Sprintf("tensor: MatMul32BiasRows shape mismatch (%dx%d)·(%dx%d)+bias(%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, len(bias), dst.Rows, dst.Cols))
	}
	if n == 0 || lo >= hi {
		return
	}
	// The tiles index raw memory: hold them to the slices' bounds first.
	if lo < 0 || hi*k > len(a.Data) || hi*n > len(dst.Data) || k*n > len(b.Data) {
		panic(fmt.Sprintf("tensor: MatMul32BiasRows rows [%d, %d) outside (%dx%d)·(%dx%d)->(%dx%d)",
			lo, hi, a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	if k == 0 {
		// An empty product: +0 on every column, plus its bias.
		clear(dst.Data[lo*n : hi*n])
		if bias != nil {
			AddRowVector32Rows(dst, bias, lo, hi)
		}
		return
	}
	g := tileGrid[float32]{
		kc: int64(k),
		a:  a.Data, lda: k, astride: 1,
		b: b.Data, panelStride: packNR32, bstride: n,
		c: dst.Data, ldc: n, n: n, bias: bias,
	}
	g.sweep(lo, hi, 0, (n+packNR32-1)/packNR32)
}

var matMul32Pool = sync.Pool{New: func() any { return new(matMul32Task) }}

// MatMul32 computes dst = a·b in float32: MatMul32BiasRows over the rows,
// partitioned over workers, each dst row written by exactly one.
func MatMul32(dst, a, b *Matrix32) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMul32 shape mismatch (%dx%d)·(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	t := matMul32Pool.Get().(*matMul32Task)
	t.dst, t.a, t.b = dst, a, b
	parallel.ForTask(a.Rows, forGrain(a.Cols*b.Cols), t)
	*t = matMul32Task{}
	matMul32Pool.Put(t)
}

// AddRowVector32Rows adds the length-Cols vector v to rows [lo, hi) of m
// in place: the bias add of an empty product (the tiles' epilogue adds it
// everywhere else, MatMul32BiasRows), and of MatMul32's output where a
// caller adds it after.
func AddRowVector32Rows(m *Matrix32, v []float32, lo, hi int) {
	if len(v) != m.Cols {
		panic("tensor: AddRowVector32Rows length mismatch")
	}
	w := vecLanes32()
	for i := lo; i < hi; i++ {
		add32(m.Row(i), v, w)
	}
}

// vecLanes32 is the block width of the float32 add kernel: twice the
// float64 one's lanes on either SIMD rung, 0 for none.
func vecLanes32() int { return 2 * vecLanes() }

// add32 is dst[j] += v[j] over two slices of one length. With w > 0 the
// leading whole blocks go to the w-lane add kernel (addBlock32,
// addBlock32x16) and the rest to the scalar loop: one rounded add per
// element either way, so neither w nor where a caller cut the slices
// shows in a bit.
func add32(dst, v []float32, w int) {
	j := 0
	if w > 0 && len(v) >= w {
		j = len(v) &^ (w - 1)
		if w == 16 {
			addBlock32x16(int64(j), &dst[0], &v[0])
		} else {
			addBlock32(int64(j), &dst[0], &v[0])
		}
	}
	addScalar32(dst, v, j, len(v))
}

func addScalar32(dst, v []float32, lo, hi int) {
	for j := lo; j < hi; j++ {
		dst[j] += v[j]
	}
}
