package tensor

import "math"

// LayerNorm32Rows writes rows [lo, hi) of dst = LayerNorm(src), the
// float32 serving twin's row normalisation: per row,
//
//	μ   = Σ float64(v) / n                 ascending columns
//	inv = 1 / sqrt(Σ (float64(v)−μ)² / n + eps)   ascending, d·d rounded before the add
//	out = float32((float64(v)−μ)·inv)·gain + shift   unfused, in float32
//
// with the moment sums in float64, where float32 accumulation would
// visibly drift at the row widths this system uses. layerNorm32Row is
// that definition; its explicit conversions round each product before
// its add, so no build can fuse the sequence the kernel is held to. On
// the avx512 rung whole groups of eight rows go to lnBlock32x8
// (ln32_amd64.s), which keeps each row's two ordered sums by putting
// rows, not columns, in the vector lanes: a lane performs exactly its
// row's scalar sequence of correctly rounded operations, so which rows
// share a group — and with it lo, hi, the rung and the thread count —
// never shows in a bit. dst and src may alias.
func LayerNorm32Rows(dst, src *Matrix32, gain, shift []float32, eps float64, lo, hi int) {
	cols := src.Cols
	if dst.Cols != cols || len(gain) != cols || len(shift) != cols {
		panic("tensor: LayerNorm32Rows width mismatch")
	}
	i := lo
	if groups := (hi - lo) / 8; cols > 0 && tier == tierAVX512 && groups > 0 {
		end := lo + 8*groups
		_, _ = src.Data[end*cols-1], dst.Data[end*cols-1] // the kernel reads and writes rows [lo, end) unchecked
		lnBlock32x8(int64(groups), int64(cols), &src.Data[lo*cols], &dst.Data[lo*cols], &gain[0], &shift[0], eps)
		i = end
	}
	for ; i < hi; i++ {
		layerNorm32Row(dst.Row(i), src.Row(i), gain, shift, eps)
	}
}

func layerNorm32Row(out, row, gain, shift []float32, eps float64) {
	n := float64(len(row))
	var mu float64
	for _, v := range row {
		mu += float64(v)
	}
	mu /= n
	var varsum float64
	for _, v := range row {
		d := float64(v) - mu
		varsum += float64(d * d)
	}
	inv := 1 / math.Sqrt(varsum/n+eps)
	for j, v := range row {
		xh := (float64(v) - mu) * inv
		out[j] = float32(float32(xh)*gain[j]) + shift[j]
	}
}
