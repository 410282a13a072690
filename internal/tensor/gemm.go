package tensor

import (
	"math"
	"unsafe"
)

// The tile grid both element types' GEMMs run on, and the go rung's two
// products: the float64 definition (fmaRows) and the float32 loop
// (mulRows32). See pack.go for the arithmetic and the one layout.

// panelBytes is what one k step of one tile panel occupies on the SIMD
// rungs, whatever the element type: 8 float64 or 16 float32 lanes.
const panelBytes = 64

// float is the element type of a GEMM tile: the d-tiles' or the s-tiles'.
type float interface{ float32 | float64 }

// tileGrid is one GEMM as the microkernels see it (see simd_amd64.s): tile
// row r of A starts at a[r·lda] and steps astride per k, 64-byte panel p of
// B (8 float64 or 16 float32 columns) starts at b[p·panelStride] and steps
// bstride per k, and C row r is c[r·ldc:], with panel p at columns
// [p·lanes, min((p+1)·lanes, n)) — all in elements. The last panel is
// partial where n is not a multiple of the lanes. MatMulBiasRows and
// MatMul32BiasRows (rows of a, raw rows of b: every a·b, and float64's
// a·bᵀ on the transpose) and MatMulATBAcc (columns of a, raw rows of b)
// differ only in these numbers; the element type picks the d- or the
// s-tiles and the lanes per panel, nothing else. acc != 0 resumes an
// accumulation onto what c holds: MatMulATBAcc's, so float64 only.
type tileGrid[T float] struct {
	kc, acc                   int64
	a, b, c                   []T
	lda, astride              int
	panelStride, bstride, ldc int
	n                         int // columns of c
	bias                      []T // per column of c; nil for none
}

// sweep covers rows [r0, r1) × panels [p0, p1). On the go rung that is
// the float64 definition itself (fmaRows) or the float32 loop (mulRows32);
// on the SIMD rungs, the tallest tiles of the rung that fit: on avx512 the
// 8-row stripes between the range's first and last GLOBAL multiple of 8 —
// two whole panels wide, or one panel (a lone or partial one), a float64
// one walking every stripe in one call and a float32 one taken as two
// 4-row tiles — and around them (or on avx2 throughout) 4-row tiles on
// multiples of 4, then single rows. Every tile performs the same
// per-element sequence, so the cover chosen — and with it r0, r1 and the
// SIMD rung — never shows in a bit.
func (g *tileGrid[T]) sweep(r0, r1, p0, p1 int) {
	if tier < tierAVX2 {
		switch g := any(g).(type) {
		case *tileGrid[float64]:
			fmaRows(g, r0, r1, p0, p1)
		case *tileGrid[float32]:
			mulRows32(g, r0, r1, p0, p1)
		}
		return
	}
	if s0, s1 := (r0+7)&^7, r1&^7; tier >= tierAVX512 && s0 < s1 {
		var e T
		lanes := panelBytes / int(unsafe.Sizeof(e))
		g.narrow(r0, s0, p0, p1)
		for p, w := p0, 0; p < p1; p += w {
			w = 1
			if p+2 <= p1 && (p+2)*lanes <= g.n {
				w = 2
			}
			switch {
			case lanes == 8 && w == 1:
				g.tile(8, 1, s0, p, (s1-s0)/8)
			case w == 1:
				g.narrow(s0, s1, p, p+1)
			default:
				for r := s0; r < s1; r += 8 {
					g.tile(8, 2, r, p, 1)
				}
			}
		}
		r0 = s1
	}
	g.narrow(r0, r1, p0, p1)
}

// narrow covers rows [r0, r1) × panels [p0, p1) with one-panel 4-row
// tiles on multiples of 4 and single rows.
func (g *tileGrid[T]) narrow(r0, r1, p0, p1 int) {
	for r, h := r0, 0; r < r1; r += h {
		h = 1
		if r&3 == 0 && r+4 <= r1 {
			h = 4
		}
		for p := p0; p < p1; p++ {
			g.tile(h, 1, r, p, 1)
		}
	}
}

// tile runs the h-row, w-panel tile at row r, panel p — for the float64
// 8×1 tile, down stripes stripes of 8 rows. The element size is a constant
// of each instantiation, so the branches on it compile away.
func (g *tileGrid[T]) tile(h, w, r, p, stripes int) {
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
	live := int64(min(lanes, g.n-p*lanes))
	if size == 8 {
		a, b, c, bias := (*float64)(a), (*float64)(b), (*float64)(c), (*float64)(bias)
		switch {
		case w == 2:
			dgemmTile8(g.kc, a, lda, astride, b, panelStride, bstride, c, ldc, bias, g.acc)
		case h == 8:
			dgemmTile8x1(g.kc, a, lda, astride, b, panelStride, bstride, c, ldc, bias, g.acc, live, int64(stripes))
		case h == 4:
			dgemmTile4(g.kc, a, lda, astride, b, panelStride, bstride, c, ldc, bias, g.acc, live)
		default:
			dgemmTile1(g.kc, a, lda, astride, b, panelStride, bstride, c, ldc, bias, g.acc, live)
		}
	} else {
		a, b, c, bias := (*float32)(a), (*float32)(b), (*float32)(c), (*float32)(bias)
		switch h {
		case 8:
			sgemmTile8(g.kc, a, lda, astride, b, panelStride, bstride, c, ldc, bias)
		case 4:
			sgemmTile4(g.kc, a, lda, astride, b, panelStride, bstride, c, ldc, bias, live)
		default:
			sgemmTile1(g.kc, a, lda, astride, b, panelStride, bstride, c, ldc, bias, live)
		}
	}
}

// fmaRows is the definition of every float64 product (pack.go) and the go
// rung's kernel: rows [r0, r1) × panels [p0, p1) of g, each element one
// fused multiply-add per k, k ascending, onto +0 or (g.acc != 0) what c
// holds, then one rounded add of its column's bias. The SIMD tiles run
// exactly this, a lane per element.
func fmaRows(g *tileGrid[float64], r0, r1, p0, p1 int) {
	for r := r0; r < r1; r++ {
		for p := p0; p < p1; p++ {
			j0 := p * packNR
			c := g.c[r*g.ldc+j0 : r*g.ldc+min(j0+packNR, g.n)]
			var acc [packNR]float64
			if g.acc != 0 {
				copy(acc[:], c)
			}
			for k := 0; k < int(g.kc); k++ {
				av := g.a[r*g.lda+k*g.astride]
				for j, bv := range g.b[p*g.panelStride+k*g.bstride:][:len(c)] {
					acc[j] = math.FMA(av, bv, acc[j])
				}
			}
			if g.bias != nil {
				for j, bv := range g.bias[j0 : j0+len(c)] {
					acc[j] += bv
				}
			}
			copy(c, acc[:])
		}
	}
}

// mulRows32 is the go rung's float32 product: rows [r0, r1) × panels [p0,
// p1) of g, each element a product rounded to float32 then added, per k,
// k ascending, onto +0, then one rounded add of its column's bias — the
// order of the s-tiles without their fused multiply-add, so it is held to
// them within a tolerance, not bitwise. The conversion keeps a build from
// fusing it.
func mulRows32(g *tileGrid[float32], r0, r1, p0, p1 int) {
	for r := r0; r < r1; r++ {
		for p := p0; p < p1; p++ {
			j0 := p * packNR32
			c := g.c[r*g.ldc+j0 : r*g.ldc+min(j0+packNR32, g.n)]
			var acc [packNR32]float32
			for k := 0; k < int(g.kc); k++ {
				av := g.a[r*g.lda+k*g.astride]
				for j, bv := range g.b[p*g.panelStride+k*g.bstride:][:len(c)] {
					acc[j] += float32(av * bv)
				}
			}
			if g.bias != nil {
				for j, bv := range g.bias[j0 : j0+len(c)] {
					acc[j] += bv
				}
			}
			copy(c, acc[:])
		}
	}
}
