package tensor

import (
	"fmt"
	"sync"
	"unsafe"

	"meshgnn/internal/parallel"
)

// Packed GEMM drivers: the float64 ones, and the tile grid and panel sweep
// both element types share. See pack.go for the tier's layout, blocking,
// and determinism contract.

// panelBytes is what one k step of one packed panel occupies on the SIMD
// rungs, whatever the element type: 8 float64 or 16 float32 lanes.
const panelBytes = 64

// ncPanels bounds how many panels of bytesPerK bytes per k step are
// streamed per (kc, nc) block so the live panel group stays within
// packNcBudget bytes.
func ncPanels(kcLen, bytesPerK int) int {
	per := kcLen * bytesPerK
	if per <= 0 {
		return 1
	}
	g := packNcBudget / per
	if g < 1 {
		g = 1
	}
	return g
}

// packedMMTask computes dst[lo:hi] = a[lo:hi]·B (+ bias, when set) from a
// packed B operand.
type packedMMTask struct {
	dst, a *Matrix
	pb     *PackedB
	bias   []float64
}

func (t *packedMMTask) Run(lo, hi int) {
	fused := 0 // leading columns whose bias the tiles already added
	if t.pb.NR == 8 {
		fused = sweepPacked(t.dst.Data, t.dst.Cols, t.a.Data, t.a.Cols, t.pb.panels, t.pb.K, t.pb.N, t.bias, lo, hi)
	} else {
		t.runGo(lo, hi)
	}
	if t.pb.N%t.pb.NR != 0 {
		t.scalarTail(lo, hi)
	}
	if t.bias != nil && fused < t.pb.N {
		for i := lo; i < hi; i++ {
			addScalar(t.dst.Row(i), t.bias, fused, t.pb.N)
		}
	}
}

// float is the element type of a GEMM tile: the d-tiles' or the s-tiles'.
type float interface{ float32 | float64 }

// tileGrid is one Kc block of a GEMM as the microkernels see it (see
// simd_amd64.s): tile row r of A starts at a[r·lda] and steps astride per
// k, 64-byte panel p of B (8 float64 or 16 float32 columns) starts at
// b[p·panelStride] and steps bstride per k, and C row r is c[r·ldc:], with
// panel p at columns [p·lanes, (p+1)·lanes) — all in elements. MatMul,
// MatMul32 and MatMulABT (rows of a, packed panels) and MatMulATB (columns
// of a, raw rows of b) differ only in these numbers; the element type
// picks the d- or the s-tiles and the lanes per panel, nothing else.
type tileGrid[T float] struct {
	kc, acc                   int64
	a, b, c                   []T
	lda, astride              int
	panelStride, bstride, ldc int
	bias                      []T // per column of c; nil for none
}

// sweep covers rows [r0, r1) × panels [p0, p1) with the tallest tiles of
// the current rung that fit: 8-row tiles (two panels wide) on GLOBAL
// multiples of 8 where the rung has them, then 4-row tiles on multiples of
// 4, then single rows; the odd last panel of an 8-row tile is two 4-row
// tiles. Every tile performs the same per-element sequence, so the cover
// chosen — and with it r0, r1 and the rung — never shows in a bit.
func (g *tileGrid[T]) sweep(r0, r1, p0, p1 int) {
	tall := 4
	if tier >= tierAVX512 {
		tall = 8
	}
	for r, mr := r0, 0; r < r1; r += mr {
		switch {
		case tall == 8 && r&7 == 0 && r+8 <= r1:
			mr = 8
		case r&3 == 0 && r+4 <= r1:
			mr = 4
		default:
			mr = 1
		}
		for p, w := p0, 0; p < p1; p += w {
			h := mr
			w = 1
			if mr == 8 {
				if p+2 <= p1 {
					w = 2
				} else {
					h = 4
				}
			}
			for rr := r; rr < r+mr; rr += h {
				g.tile(h, rr, p)
			}
		}
	}
}

// tile runs the h-row tile at row r, panel p: the 8-row tile spans panels
// p and p+1, the others panel p alone. The element size is a constant of
// each instantiation, so the branch on it compiles away.
func (g *tileGrid[T]) tile(h, r, p int) {
	var e T
	size := int(unsafe.Sizeof(e))
	lanes := panelBytes / size
	a := unsafe.Pointer(&g.a[r*g.lda])
	b := unsafe.Pointer(&g.b[p*g.panelStride])
	c := unsafe.Pointer(&g.c[r*g.ldc+p*lanes])
	var bias unsafe.Pointer
	if g.bias != nil {
		bias = unsafe.Pointer(&g.bias[p*lanes])
	}
	lda, astride := int64(g.lda*size), int64(g.astride*size)
	panelStride, bstride, ldc := int64(g.panelStride*size), int64(g.bstride*size), int64(g.ldc*size)
	if size == 8 {
		a, b, c, bias := (*float64)(a), (*float64)(b), (*float64)(c), (*float64)(bias)
		switch h {
		case 8:
			dgemmTile8(g.kc, a, lda, astride, b, panelStride, bstride, c, ldc, bias, g.acc)
		case 4:
			dgemmTile4(g.kc, a, lda, astride, b, panelStride, bstride, c, ldc, bias, g.acc)
		default:
			dgemmTile1(g.kc, a, lda, astride, b, panelStride, bstride, c, ldc, bias, g.acc)
		}
	} else {
		a, b, c, bias := (*float32)(a), (*float32)(b), (*float32)(c), (*float32)(bias)
		switch h {
		case 8:
			sgemmTile8(g.kc, a, lda, astride, b, panelStride, bstride, c, ldc, bias, g.acc)
		case 4:
			sgemmTile4(g.kc, a, lda, astride, b, panelStride, bstride, c, ldc, bias, g.acc)
		default:
			sgemmTile1(g.kc, a, lda, astride, b, panelStride, bstride, c, ldc, bias, g.acc)
		}
	}
}

// sweepPacked computes rows [lo, hi) of the full panels of c = a·B (+
// bias) from k-major packed panels (K × lanes each, N/lanes of them): the
// FMA tiles swept Kc block by Kc block and, within one, panel group by
// panel group — the one driver loop of MatMul, MatMulABT and MatMul32. The
// bias rides the last Kc block as the tiles' epilogue. Returns how many
// leading columns got their bias here; the N mod lanes tail columns, and
// every column where K is 0, are the caller's.
func sweepPacked[T float](c []T, ldc int, a []T, lda int, panels []T, k, n int, bias []T, lo, hi int) (fused int) {
	var e T
	lanes := panelBytes / int(unsafe.Sizeof(e))
	np := n / lanes
	if np == 0 || lo >= hi {
		return 0
	}
	for kc0 := 0; kc0 < k; kc0 += packKc {
		kcLen := min(packKc, k-kc0)
		g := tileGrid[T]{
			kc: int64(kcLen),
			a:  a[kc0:], lda: lda, astride: 1,
			b: panels[kc0*lanes:], panelStride: k * lanes, bstride: lanes,
			c: c, ldc: ldc,
		}
		if kc0 > 0 {
			g.acc = 1
		}
		if kc0+kcLen == k {
			g.bias = bias
		}
		group := ncPanels(kcLen, panelBytes)
		for p0 := 0; p0 < np; p0 += group {
			g.sweep(lo, hi, p0, min(p0+group, np))
		}
	}
	if bias != nil && k > 0 {
		fused = np * lanes
	}
	return fused
}

// runGo sweeps the pure-Go 2×4 packed microkernel, which keeps the legacy
// rank-4 grouped expression per element and is bitwise-identical to the
// legacy MatMul kernel on finite data.
func (t *packedMMTask) runGo(lo, hi int) {
	pb := t.pb
	k := pb.K
	np := pb.N / 4
	for kc0 := 0; kc0 < k; kc0 += packKc {
		kcLen := min(packKc, k-kc0)
		accF := kc0 > 0
		i := lo
		for ; i+2 <= hi; i += 2 {
			t.goRow2(i, np, kc0, kcLen, accF)
		}
		for ; i < hi; i++ {
			t.goRow1(i, np, kc0, kcLen, accF)
		}
	}
}

func (t *packedMMTask) goRow2(i, np, kc0, kcLen int, accF bool) {
	pb := t.pb
	k := pb.K
	ka, dn := t.a.Cols, t.dst.Cols
	ad, dd := t.a.Data, t.dst.Data
	ar0 := ad[i*ka+kc0 : i*ka+kc0+kcLen]
	ar1 := ad[(i+1)*ka+kc0 : (i+1)*ka+kc0+kcLen]
	for p := 0; p < np; p++ {
		panel := pb.panels[(p*k+kc0)*4 : (p*k+kc0+kcLen)*4]
		var c00, c01, c02, c03, c10, c11, c12, c13 float64
		d0 := dd[i*dn+p*4 : i*dn+p*4+4]
		d1 := dd[(i+1)*dn+p*4 : (i+1)*dn+p*4+4]
		if accF {
			c00, c01, c02, c03 = d0[0], d0[1], d0[2], d0[3]
			c10, c11, c12, c13 = d1[0], d1[1], d1[2], d1[3]
		}
		kk := 0
		for ; kk+4 <= kcLen; kk += 4 {
			b0 := panel[kk*4 : kk*4+4]
			b1 := panel[(kk+1)*4 : (kk+1)*4+4]
			b2 := panel[(kk+2)*4 : (kk+2)*4+4]
			b3 := panel[(kk+3)*4 : (kk+3)*4+4]
			a0, a1, a2, a3 := ar0[kk], ar0[kk+1], ar0[kk+2], ar0[kk+3]
			c00 += a0*b0[0] + a1*b1[0] + a2*b2[0] + a3*b3[0]
			c01 += a0*b0[1] + a1*b1[1] + a2*b2[1] + a3*b3[1]
			c02 += a0*b0[2] + a1*b1[2] + a2*b2[2] + a3*b3[2]
			c03 += a0*b0[3] + a1*b1[3] + a2*b2[3] + a3*b3[3]
			a0, a1, a2, a3 = ar1[kk], ar1[kk+1], ar1[kk+2], ar1[kk+3]
			c10 += a0*b0[0] + a1*b1[0] + a2*b2[0] + a3*b3[0]
			c11 += a0*b0[1] + a1*b1[1] + a2*b2[1] + a3*b3[1]
			c12 += a0*b0[2] + a1*b1[2] + a2*b2[2] + a3*b3[2]
			c13 += a0*b0[3] + a1*b1[3] + a2*b2[3] + a3*b3[3]
		}
		for ; kk < kcLen; kk++ {
			bv := panel[kk*4 : kk*4+4]
			av0, av1 := ar0[kk], ar1[kk]
			c00 += av0 * bv[0]
			c01 += av0 * bv[1]
			c02 += av0 * bv[2]
			c03 += av0 * bv[3]
			c10 += av1 * bv[0]
			c11 += av1 * bv[1]
			c12 += av1 * bv[2]
			c13 += av1 * bv[3]
		}
		d0[0], d0[1], d0[2], d0[3] = c00, c01, c02, c03
		d1[0], d1[1], d1[2], d1[3] = c10, c11, c12, c13
	}
}

func (t *packedMMTask) goRow1(i, np, kc0, kcLen int, accF bool) {
	pb := t.pb
	k := pb.K
	ka, dn := t.a.Cols, t.dst.Cols
	ad, dd := t.a.Data, t.dst.Data
	ar0 := ad[i*ka+kc0 : i*ka+kc0+kcLen]
	for p := 0; p < np; p++ {
		panel := pb.panels[(p*k+kc0)*4 : (p*k+kc0+kcLen)*4]
		var c00, c01, c02, c03 float64
		d0 := dd[i*dn+p*4 : i*dn+p*4+4]
		if accF {
			c00, c01, c02, c03 = d0[0], d0[1], d0[2], d0[3]
		}
		kk := 0
		for ; kk+4 <= kcLen; kk += 4 {
			b0 := panel[kk*4 : kk*4+4]
			b1 := panel[(kk+1)*4 : (kk+1)*4+4]
			b2 := panel[(kk+2)*4 : (kk+2)*4+4]
			b3 := panel[(kk+3)*4 : (kk+3)*4+4]
			a0, a1, a2, a3 := ar0[kk], ar0[kk+1], ar0[kk+2], ar0[kk+3]
			c00 += a0*b0[0] + a1*b1[0] + a2*b2[0] + a3*b3[0]
			c01 += a0*b0[1] + a1*b1[1] + a2*b2[1] + a3*b3[1]
			c02 += a0*b0[2] + a1*b1[2] + a2*b2[2] + a3*b3[2]
			c03 += a0*b0[3] + a1*b1[3] + a2*b2[3] + a3*b3[3]
		}
		for ; kk < kcLen; kk++ {
			bv := panel[kk*4 : kk*4+4]
			av := ar0[kk]
			c00 += av * bv[0]
			c01 += av * bv[1]
			c02 += av * bv[2]
			c03 += av * bv[3]
		}
		d0[0], d0[1], d0[2], d0[3] = c00, c01, c02, c03
	}
}

// scalarTail computes the N mod NR remainder columns from the packed
// column strips, over the full K extent, in MatMul's legacy rank-4 grouped
// order — for a transposed operand too, so that PackBT panels give
// MatMul's bits on the transpose.
func (t *packedMMTask) scalarTail(lo, hi int) {
	pb := t.pb
	k, n, nr := pb.K, pb.N, pb.NR
	j0 := (n / nr) * nr
	ka, dn := t.a.Cols, t.dst.Cols
	ad, dd := t.a.Data, t.dst.Data
	for i := lo; i < hi; i++ {
		arow := ad[i*ka : i*ka+k]
		for jt := 0; jt < n-j0; jt++ {
			strip := pb.tail[jt*k : (jt+1)*k]
			var s float64
			kk := 0
			for ; kk+4 <= k; kk += 4 {
				s += float64(arow[kk]*strip[kk]) + float64(arow[kk+1]*strip[kk+1]) +
					float64(arow[kk+2]*strip[kk+2]) + float64(arow[kk+3]*strip[kk+3])
			}
			for ; kk < k; kk++ {
				s += float64(arow[kk] * strip[kk])
			}
			dd[i*dn+j0+jt] = s
		}
	}
}

var packedMMPool = sync.Pool{New: func() any { return new(packedMMTask) }}

// matMulPacked runs dst = a·b through the packed tier, packing b into
// pooled scratch first.
func matMulPacked(dst, a, b *Matrix) {
	pb := getPackScratch(a.Cols, b.Cols, packNR())
	pb.packFrom(b)
	t := packedMMPool.Get().(*packedMMTask)
	t.dst, t.a, t.pb = dst, a, pb
	parallel.ForTask(a.Rows, forGrain(a.Cols*b.Cols), t)
	*t = packedMMTask{}
	packedMMPool.Put(t)
	putPackScratch(pb)
}

// MatMulPackedRows computes rows [lo, hi) of dst = a·B from a pre-packed B
// operand (PackB, PackBT): the pack-once form for weights reused across
// many calls and row ranges. The result is bitwise-identical to MatMul on
// the unpacked operand — on its transpose, for a PackBT operand — when the
// packed tier would engage for its shape (ShouldPack); for smaller shapes
// it still runs the packed kernels (the caller opted in by packing). dst
// and a are indexed by the same row numbers and may be row-block headers.
func MatMulPackedRows(dst, a *Matrix, pb *PackedB, lo, hi int) {
	MatMulPackedBiasRows(dst, a, pb, nil, lo, hi)
}

// MatMulPackedBiasRows computes rows [lo, hi) of dst = a·B + bias, the
// linear layer in one pass: bitwise MatMulPackedRows followed by
// AddRowVectorRows(dst, bias, lo, hi) — each element is the finished sum
// plus its column's bias, rounded once — with the add done on the tile
// while it is still in registers. A nil bias adds nothing.
func MatMulPackedBiasRows(dst, a *Matrix, pb *PackedB, bias []float64, lo, hi int) {
	if a.Cols != pb.K || dst.Cols != pb.N || (bias != nil && len(bias) != pb.N) {
		panic(fmt.Sprintf("tensor: MatMulPackedRows shape mismatch (%dx%d)·packed(%dx%d)+bias(%d)->(%dx%d)",
			a.Rows, a.Cols, pb.K, pb.N, len(bias), dst.Rows, dst.Cols))
	}
	if pb.NR != packNR() {
		panic(fmt.Sprintf("tensor: MatMulPackedRows panel width %d, kernel tier wants %d (re-pack after a tier change)",
			pb.NR, packNR()))
	}
	t := packedMMTask{dst: dst, a: a, pb: pb, bias: bias}
	t.Run(lo, hi)
}

// matMulATBAccSIMD is the packed-tier body of the MatMulATB reduction: the
// same tiles walking DOWN the chunk's rows via strides (a columns become
// tile rows, raw b rows are already panel-shaped). The chunk schedule,
// accumulator layout, and merge order of the surrounding ReduceWith are
// untouched, so determinism across thread counts is inherited; within a
// chunk every a-column meets the identical per-column sequence whatever
// tile it lands in. The tiles load acc (acc = 1) and the n mod 8 tail
// columns add to it, so every element continues its chain from its entry
// value: a chunk taken in pieces is bitwise the chunk in one call.
func matMulATBAccSIMD(acc []float64, a, b *Matrix, lo, hi int) {
	in, n := a.Cols, b.Cols
	ad, bd := a.Data, b.Data
	np8 := (n / 8) * 8
	if hi > lo {
		g := tileGrid[float64]{
			kc: int64(hi - lo),
			a:  ad[lo*in:], lda: 1, astride: in,
			b: bd[lo*n:], panelStride: 8, bstride: n,
			c: acc, ldc: n, acc: 1,
		}
		g.sweep(0, in, 0, n/8)
	}
	if np8 < n {
		for r := lo; r < hi; r++ {
			arow := ad[r*in : (r+1)*in]
			brow := bd[r*n+np8 : (r+1)*n]
			for ii, av := range arow {
				if av == 0 {
					continue
				}
				accRow := acc[ii*n+np8 : (ii+1)*n]
				for j, bv := range brow {
					accRow[j] += av * bv
				}
			}
		}
	}
}
