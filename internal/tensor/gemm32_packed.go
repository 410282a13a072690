package tensor

import (
	"fmt"
	"sync"

	"meshgnn/internal/parallel"
)

// Packed GEMM driver (f32): the serving twin of gemm_packed.go, built on
// the 4×16 / 1×16 AVX2 sgemm microkernels. SIMD-only — without AVX2 the
// f32 ops stay on their scalar kernels, so this driver never runs there.

type packedMM32Task struct {
	dst, a *Matrix32
	pb     *PackedB32
}

func (t *packedMM32Task) Run(lo, hi int) {
	pb := t.pb
	k, n := pb.K, pb.N
	np := n / 16
	ka, dn := t.a.Cols, t.dst.Cols
	ad, dd := t.a.Data, t.dst.Data
	for kc0 := 0; kc0 < k; kc0 += packKc {
		kcLen := min(packKc, k-kc0)
		var accF int64
		if kc0 > 0 {
			accF = 1
		}
		kc := int64(kcLen)
		// Each f32 panel is 64 bytes per k step, like the f64 one, so the
		// same Nc budget applies per panel.
		for p0 := 0; p0 < np; p0 += ncPanels(kcLen, 16) {
			p1 := min(p0+ncPanels(kcLen, 16), np)
			i := lo
			for ; i < hi && i&3 != 0; i++ {
				a0 := &ad[i*ka+kc0]
				for p := p0; p < p1; p++ {
					sgemmTile1(kc, a0, 4, &pb.panels[(p*k+kc0)*16], 64, &dd[i*dn+p*16], accF)
				}
			}
			for ; i+4 <= hi; i += 4 {
				a0 := &ad[i*ka+kc0]
				a1 := &ad[(i+1)*ka+kc0]
				a2 := &ad[(i+2)*ka+kc0]
				a3 := &ad[(i+3)*ka+kc0]
				for p := p0; p < p1; p++ {
					bpp := &pb.panels[(p*k+kc0)*16]
					sgemmTile4(kc, a0, a1, a2, a3, 4, bpp, 64,
						&dd[i*dn+p*16], &dd[(i+1)*dn+p*16], &dd[(i+2)*dn+p*16], &dd[(i+3)*dn+p*16], accF)
				}
			}
			for ; i < hi; i++ {
				a0 := &ad[i*ka+kc0]
				for p := p0; p < p1; p++ {
					sgemmTile1(kc, a0, 4, &pb.panels[(p*k+kc0)*16], 64, &dd[i*dn+p*16], accF)
				}
			}
		}
	}
	if n%16 != 0 {
		j0 := np * 16
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
	if a.Cols != pb.K || dst.Cols != pb.N {
		panic(fmt.Sprintf("tensor: MatMul32PackedRows shape mismatch (%dx%d)·packed(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, pb.K, pb.N, dst.Rows, dst.Cols))
	}
	if tier < tierAVX2 {
		panic("tensor: MatMul32PackedRows requires the SIMD kernel tier")
	}
	t := packedMM32Task{dst: dst, a: a, pb: pb}
	t.Run(lo, hi)
}
