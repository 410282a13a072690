package tensor

import (
	"fmt"
	"sync"

	"meshgnn/internal/parallel"
)

// Packed GEMM driver (f32): the serving twin of gemm_packed.go, on the
// same tile grid (sweepPacked) with the s-tiles. SIMD-only — without AVX2
// the f32 ops stay on their scalar kernels, so this driver never runs
// there.

// packedMM32Task computes dst[lo:hi] = a[lo:hi]·B (+ bias, when set) from
// a packed B operand.
type packedMM32Task struct {
	dst, a *Matrix32
	pb     *PackedB32
	bias   []float32
}

func (t *packedMM32Task) Run(lo, hi int) {
	pb := t.pb
	fused := 0 // leading columns the tiles wrote, bias included
	if pb.K > 0 {
		fused = pb.N / packNR32 * packNR32
		sweepPacked(t.dst.Data, t.dst.Cols, t.a.Data, t.a.Cols, pb.panels, pb.K, fused, t.bias, lo, hi)
	} else {
		// An empty product: the definition's +0 on every column (the
		// scalar tail rewrites its own), plus the bias below.
		clear(t.dst.Data[lo*t.dst.Cols : hi*t.dst.Cols])
	}
	if pb.N%packNR32 != 0 {
		t.scalarTail(lo, hi)
	}
	if t.bias != nil && fused < pb.N {
		for i := lo; i < hi; i++ {
			addScalar32(t.dst.Row(i), t.bias, fused, pb.N)
		}
	}
}

// scalarTail computes the N mod 16 remainder columns from the packed
// column strips, over the full K extent, in the scalar kernel's rank-4
// grouped order.
func (t *packedMM32Task) scalarTail(lo, hi int) {
	pb := t.pb
	k, n := pb.K, pb.N
	j0 := n / packNR32 * packNR32
	ka, dn := t.a.Cols, t.dst.Cols
	ad, dd := t.a.Data, t.dst.Data
	for i := lo; i < hi; i++ {
		arow := ad[i*ka : i*ka+k]
		for jt := 0; jt < n-j0; jt++ {
			strip := pb.tail[jt*k : (jt+1)*k]
			var s float32
			kk := 0
			for ; kk+4 <= k; kk += 4 {
				s += arow[kk]*strip[kk] + arow[kk+1]*strip[kk+1] +
					arow[kk+2]*strip[kk+2] + arow[kk+3]*strip[kk+3]
			}
			for ; kk < k; kk++ {
				s += arow[kk] * strip[kk]
			}
			dd[i*dn+j0+jt] = s
		}
	}
}

var packedMM32Pool = sync.Pool{New: func() any { return new(packedMM32Task) }}

func matMul32Packed(dst, a *Matrix32, pb *PackedB32) {
	t := packedMM32Pool.Get().(*packedMM32Task)
	t.dst, t.a, t.pb = dst, a, pb
	parallel.ForTask(a.Rows, forGrain(a.Cols*pb.N), t)
	*t = packedMM32Task{}
	packedMM32Pool.Put(t)
}

// MatMul32PackedRows computes rows [lo, hi) of dst = a·B from a pre-packed
// f32 operand (PackB32): the compile-time-packed weight path of the
// serving twin. Requires the SIMD tier; callers hold a PackedB32 only when
// ShouldPack32 reported true at pack time. dst and a are indexed by the
// same row numbers and may be row-block headers.
func MatMul32PackedRows(dst, a *Matrix32, pb *PackedB32, lo, hi int) {
	MatMul32PackedBiasRows(dst, a, pb, nil, lo, hi)
}

// MatMul32PackedBiasRows computes rows [lo, hi) of dst = a·B + bias, the
// float32 linear layer in one pass: bitwise MatMul32PackedRows followed by
// AddRowVector32Rows(dst, bias, lo, hi), with the add done on the tile
// while it is still in registers (see MatMulBiasRows). A nil bias
// adds nothing.
func MatMul32PackedBiasRows(dst, a *Matrix32, pb *PackedB32, bias []float32, lo, hi int) {
	if a.Cols != pb.K || dst.Cols != pb.N || (bias != nil && len(bias) != pb.N) {
		panic(fmt.Sprintf("tensor: MatMul32PackedRows shape mismatch (%dx%d)·packed(%dx%d)+bias(%d)->(%dx%d)",
			a.Rows, a.Cols, pb.K, pb.N, len(bias), dst.Rows, dst.Cols))
	}
	if tier < tierAVX2 {
		panic("tensor: MatMul32PackedRows requires the SIMD kernel tier")
	}
	if lo >= hi {
		return
	}
	// The tiles index raw memory: hold them to the slices' bounds first.
	if lo < 0 || hi*pb.K > len(a.Data) || hi*pb.N > len(dst.Data) {
		panic(fmt.Sprintf("tensor: MatMul32PackedRows rows [%d, %d) outside (%dx%d)·packed(%dx%d)->(%dx%d)",
			lo, hi, a.Rows, a.Cols, pb.K, pb.N, dst.Rows, dst.Cols))
	}
	t := packedMM32Task{dst: dst, a: a, pb: pb, bias: bias}
	t.Run(lo, hi)
}
