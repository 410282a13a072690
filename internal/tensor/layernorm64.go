package tensor

// LayerNormRows is the avx512 rung of the float64 LayerNorm, the one of
// training and of float64 serving. Its scalar definition lives with its
// users (internal/nn's row loops): per row,
//
//	μ   = Σ v / n                          ascending columns
//	inv = 1 / sqrt(Σ (v−μ)² / n + eps)     ascending, d·d rounded before the add
//	xh  = (v−μ)·inv
//	out = xh·gain + shift                  the product rounded before the add
//
// LayerNormRows normalises the leading whole groups of eight rows of
// [lo, hi) through lnBlock64x8 (ln32_amd64.s), writing xh to xhat and inv
// to invStd[i] where they are not nil, and returns the first row it left:
// the caller finishes [done, hi), fewer than eight rows on avx512. On the
// other rungs and for zero columns it returns lo at once. The reasons are
// lnBlock32x8's (see LayerNorm32Rows): a lane performs exactly its row's
// scalar sequence of correctly rounded operations, so which rows share a
// group never shows in a bit. dst and src may alias; xhat may not alias
// either.
func LayerNormRows(dst, xhat *Matrix, invStd []float64, src *Matrix, gain, shift []float64, eps float64, lo, hi int) (done int) {
	cols := src.Cols
	if dst.Cols != cols || len(gain) != cols || len(shift) != cols || (xhat != nil && xhat.Cols != cols) {
		panic("tensor: LayerNormRows width mismatch")
	}
	groups := (hi - lo) / 8
	if tier != tierAVX512 || cols == 0 || groups == 0 {
		return lo
	}
	end := lo + 8*groups
	// The kernel reads and writes rows [lo, end) unchecked.
	s, d := src.Data[lo*cols:end*cols], dst.Data[lo*cols:end*cols]
	var xp, ip *float64
	if xhat != nil {
		xp = &xhat.Data[lo*cols : end*cols][0]
	}
	if invStd != nil {
		ip = &invStd[lo:end][0]
	}
	lnBlock64x8(int64(groups), int64(cols), &s[0], &d[0], xp, ip, &gain[0], &shift[0], eps)
	return end
}

// LayerNormGradRows is the avx512 rung of the float64 LayerNorm's input
// gradient. Its scalar definition lives with its user (internal/nn's
// LayerNorm.backwardLoops): per row, from the forward's caches xh and inv,
//
//	d    = dy·gain                          the product rounded
//	sum1 = Σ d,  sum2 = Σ d·xh              ascending columns, each product rounded
//	dx   = inv/n · ((n·d − sum1) − xh·sum2)
//
// It runs the leading whole groups of eight rows of [lo, hi) through
// lnGrad64x8 (ln32_amd64.s), LayerNormRows' layout — the lanes hold rows
// for the two sums, the second pass runs along each row — and returns the
// first row it left: the caller finishes [done, hi), fewer than eight rows
// on avx512; on the other rungs and for zero columns it returns lo. A lane
// performs its row's scalar sequence of correctly rounded operations, so
// no bit depends on which rows share a group. dx may not alias dy or
// xhat.
func LayerNormGradRows(dx, dy, xhat *Matrix, invStd, gain []float64, lo, hi int) (done int) {
	cols := dy.Cols
	if dx.Cols != cols || xhat.Cols != cols || len(gain) != cols {
		panic("tensor: LayerNormGradRows width mismatch")
	}
	groups := (hi - lo) / 8
	if tier != tierAVX512 || cols == 0 || groups == 0 {
		return lo
	}
	end := lo + 8*groups
	// The kernel reads and writes rows [lo, end) unchecked.
	g, x, d := dy.Data[lo*cols:end*cols], xhat.Data[lo*cols:end*cols], dx.Data[lo*cols:end*cols]
	inv := invStd[lo:end]
	lnGrad64x8(int64(groups), int64(cols), &g[0], &x[0], &inv[0], &gain[0], &d[0])
	return end
}

// LayerNormParamGradAcc is the SIMD rung of the float64 LayerNorm's
// parameter-gradient chunk body, whose scalar definition is internal/nn's
// (LayerNorm.reduceBody): over rows [lo, hi) ascending, per column j,
//
//	acc[j]      += dy[i][j]·xhat[i][j]     the gain gradient, the product rounded
//	acc[cols+j] += dy[i][j]                the shift gradient
//
// It runs the column-accumulate kernel (colacc_amd64.s), the two chains
// of up to 32 columns a pass in registers down the whole range, and
// reports whether it did the chunk: false on the go rung, where the
// caller's loop does it.
func LayerNormParamGradAcc(acc []float64, dy, xhat *Matrix, lo, hi int) bool {
	cols := dy.Cols
	if xhat.Cols != cols || len(acc) < 2*cols {
		panic("tensor: LayerNormParamGradAcc width mismatch")
	}
	return colAcc(dy.Data, xhat.Data, acc[cols:2*cols], acc[:cols], cols, lo, hi)
}
