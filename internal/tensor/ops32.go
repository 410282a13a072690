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

func (t *matMul32Task) Run(lo, hi int) { MatMul32Rows(t.dst, t.a, t.b, lo, hi) }

// MatMul32Rows computes rows [lo, hi) of dst = a·b with the scalar f32
// kernel — the one MatMul32 runs where ShouldPack32 is false.
func MatMul32Rows(dst, a, b *Matrix32, lo, hi int) {
	if a.Cols != b.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMul32Rows shape mismatch (%dx%d)·(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	n := b.Cols
	ka := a.Cols
	for i := lo; i < hi; i++ {
		arow := a.Data[i*ka : (i+1)*ka]
		drow := dst.Data[i*n : (i+1)*n]
		clear(drow)
		k := 0
		for ; k+4 <= ka; k += 4 {
			a0, a1, a2, a3 := arow[k], arow[k+1], arow[k+2], arow[k+3]
			b0 := b.Data[k*n : (k+1)*n]
			b1 := b.Data[(k+1)*n : (k+2)*n]
			b2 := b.Data[(k+2)*n : (k+3)*n]
			b3 := b.Data[(k+3)*n : (k+4)*n]
			for j, bv := range b0 {
				drow[j] += a0*bv + a1*b1[j] + a2*b2[j] + a3*b3[j]
			}
		}
		for ; k < ka; k++ {
			av := arow[k]
			brow := b.Data[k*n : (k+1)*n]
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

var matMul32Pool = sync.Pool{New: func() any { return new(matMul32Task) }}

// MatMul32 computes dst = a·b in float32. Above the K·N threshold, on
// AVX2 hardware, the packed f32 tier takes over (gemm32_packed.go);
// otherwise the rank-4 scalar kernel runs.
func MatMul32(dst, a, b *Matrix32) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMul32 shape mismatch (%dx%d)·(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	if usePacked32(a.Cols, b.Cols) {
		pb := getPackScratch32(a.Cols, b.Cols, packNR32)
		pb.packFrom(b)
		matMul32Packed(dst, a, pb)
		putPackScratch32(pb)
		return
	}
	t := matMul32Pool.Get().(*matMul32Task)
	t.dst, t.a, t.b = dst, a, b
	parallel.ForTask(a.Rows, forGrain(a.Cols*b.Cols), t)
	*t = matMul32Task{}
	matMul32Pool.Put(t)
}

// AddRowVector32Rows adds the length-Cols vector v to rows [lo, hi) of m
// in place: the bias add of a linear layer below the packed threshold
// (above it the add is the GEMM tile's epilogue, MatMul32PackedBiasRows).
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

type cloneInto32Task struct{ dst, src *Matrix32 }

func (t *cloneInto32Task) Run(lo, hi int) {
	copy(t.dst.Data[lo:hi], t.src.Data[lo:hi])
}

var cloneInto32Pool = sync.Pool{New: func() any { return new(cloneInto32Task) }}

// CloneInto32 copies src into dst (shapes must match).
func CloneInto32(dst, src *Matrix32) {
	if dst.Rows != src.Rows || dst.Cols != src.Cols {
		panic(fmt.Sprintf("tensor: CloneInto32 shape mismatch %dx%d vs %dx%d",
			dst.Rows, dst.Cols, src.Rows, src.Cols))
	}
	t := cloneInto32Pool.Get().(*cloneInto32Task)
	t.dst, t.src = dst, src
	parallel.ForTask(len(dst.Data), elemGrain, t)
	*t = cloneInto32Task{}
	cloneInto32Pool.Put(t)
}
