package tensor

import (
	"fmt"
	"sync"

	"meshgnn/internal/parallel"
)

// Packed GEMM drivers (f64). See pack.go for the tier's layout, blocking,
// and determinism contract.

// ncPanels bounds how many NR-wide panels are streamed per (kc, nc)
// block so the live panel group stays within packNcBudget bytes.
func ncPanels(kcLen, nr int) int {
	per := kcLen * nr * 8
	if per <= 0 {
		return 1
	}
	g := packNcBudget / per
	if g < 1 {
		g = 1
	}
	return g
}

// packedMMTask computes dst[lo:hi] = a[lo:hi]·B from a packed B operand.
type packedMMTask struct {
	dst, a *Matrix
	pb     *PackedB
}

func (t *packedMMTask) Run(lo, hi int) {
	if t.pb.NR == 8 {
		t.runSIMD(lo, hi)
	} else {
		t.runGo(lo, hi)
	}
	if t.pb.N%t.pb.NR != 0 {
		t.scalarTail(lo, hi)
	}
}

// runSIMD sweeps the AVX2 4×8 microkernel over the chunk's rows. Rows are
// tiled on GLOBAL multiples of 4 (head/tail rows use the 1×8 kernel,
// whose per-row operation sequence is identical), so a row's bits never
// depend on where chunk boundaries fall.
func (t *packedMMTask) runSIMD(lo, hi int) {
	pb := t.pb
	k, n := pb.K, pb.N
	np := n / 8
	ka, dn := t.a.Cols, t.dst.Cols
	ad, dd := t.a.Data, t.dst.Data
	for kc0 := 0; kc0 < k; kc0 += packKc {
		kcLen := min(packKc, k-kc0)
		var accF int64
		if kc0 > 0 {
			accF = 1
		}
		kc := int64(kcLen)
		for p0 := 0; p0 < np; p0 += ncPanels(kcLen, 8) {
			p1 := min(p0+ncPanels(kcLen, 8), np)
			i := lo
			for ; i < hi && i&3 != 0; i++ {
				a0 := &ad[i*ka+kc0]
				for p := p0; p < p1; p++ {
					dgemmTile1(kc, a0, 8, &pb.panels[(p*k+kc0)*8], 64, &dd[i*dn+p*8], accF)
				}
			}
			for ; i+4 <= hi; i += 4 {
				a0 := &ad[i*ka+kc0]
				a1 := &ad[(i+1)*ka+kc0]
				a2 := &ad[(i+2)*ka+kc0]
				a3 := &ad[(i+3)*ka+kc0]
				for p := p0; p < p1; p++ {
					bpp := &pb.panels[(p*k+kc0)*8]
					dgemmTile4(kc, a0, a1, a2, a3, 8, bpp, 64,
						&dd[i*dn+p*8], &dd[(i+1)*dn+p*8], &dd[(i+2)*dn+p*8], &dd[(i+3)*dn+p*8], accF)
				}
			}
			for ; i < hi; i++ {
				a0 := &ad[i*ka+kc0]
				for p := p0; p < p1; p++ {
					dgemmTile1(kc, a0, 8, &pb.panels[(p*k+kc0)*8], 64, &dd[i*dn+p*8], accF)
				}
			}
		}
	}
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
// column strips, over the full K extent, with the owning kernel's legacy
// accumulation order: plain ascending k for a transposed operand (the
// a·bᵀ kernel's), rank-4 grouped otherwise (MatMul's).
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
			if pb.trans {
				for kk, av := range arow {
					s += av * strip[kk]
				}
			} else {
				kk := 0
				for ; kk+4 <= k; kk += 4 {
					s += arow[kk]*strip[kk] + arow[kk+1]*strip[kk+1] +
						arow[kk+2]*strip[kk+2] + arow[kk+3]*strip[kk+3]
				}
				for ; kk < k; kk++ {
					s += arow[kk] * strip[kk]
				}
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
// the unpacked operand when the packed tier would engage for its shape
// (ShouldPack; ShouldPackABT for a transposed operand); for smaller shapes
// it still runs the packed kernels (the caller opted in by packing). dst
// and a are indexed by the same row numbers and may be row-block headers.
func MatMulPackedRows(dst, a *Matrix, pb *PackedB, lo, hi int) {
	if a.Cols != pb.K || dst.Cols != pb.N {
		panic(fmt.Sprintf("tensor: MatMulPackedRows shape mismatch (%dx%d)·packed(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, pb.K, pb.N, dst.Rows, dst.Cols))
	}
	if pb.NR != packNR() {
		panic(fmt.Sprintf("tensor: MatMulPackedRows panel width %d, kernel tier wants %d (re-pack after a tier change)",
			pb.NR, packNR()))
	}
	t := packedMMTask{dst: dst, a: a, pb: pb}
	t.Run(lo, hi)
}

// matMulATBAccSIMD is the packed-tier body of the MatMulATB reduction: the same
// 4×8 microkernel walking DOWN the chunk's rows via strides (a columns
// become tile rows, raw b rows are already panel-shaped). The chunk
// schedule, accumulator layout, and merge order of the surrounding
// ReduceWith are untouched, so determinism across thread counts is
// inherited; within a chunk every a-column meets the identical per-column
// sequence whether it lands in a 4-wide or 1-wide tile.
func matMulATBAccSIMD(acc []float64, a, b *Matrix, lo, hi int) {
	in, n := a.Cols, b.Cols
	kc := int64(hi - lo)
	ad, bd := a.Data, b.Data
	astr, bstr := int64(in*8), int64(n*8)
	np8 := (n / 8) * 8
	i := 0
	for ; i+4 <= in; i += 4 {
		for p := 0; p < np8; p += 8 {
			dgemmTile4(kc,
				&ad[lo*in+i], &ad[lo*in+i+1], &ad[lo*in+i+2], &ad[lo*in+i+3], astr,
				&bd[lo*n+p], bstr,
				&acc[i*n+p], &acc[(i+1)*n+p], &acc[(i+2)*n+p], &acc[(i+3)*n+p], 0)
		}
	}
	for ; i < in; i++ {
		for p := 0; p < np8; p += 8 {
			dgemmTile1(kc, &ad[lo*in+i], astr, &bd[lo*n+p], bstr, &acc[i*n+p], 0)
		}
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
