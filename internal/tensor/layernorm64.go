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
// to invStd[i] where they are not nil, and returns the first row it left.
// It stops early, before the group, where a row of a group holds a NaN or
// an infinity, and then reports stopped: the caller runs that group's
// eight rows [done, done+8) through the scalar definition and calls again
// from done+8, as LayerNorm32Rows does within itself. Otherwise the caller
// finishes [done, hi), fewer than eight rows on avx512. On the other
// rungs, for a gain or shift holding a NaN and for zero columns it returns
// lo, not stopped, at once. The reasons are lnBlock32x8's (see
// LayerNorm32Rows): a lane performs exactly its row's scalar sequence of
// correctly rounded operations, so which rows share a group never shows in
// a bit, and only where two NaN operands could meet would the payload
// depend on an operand order. dst and src may alias; xhat may not alias
// either.
func LayerNormRows(dst, xhat *Matrix, invStd []float64, src *Matrix, gain, shift Checked[float64], eps float64, lo, hi int) (done int, stopped bool) {
	cols := src.Cols
	if dst.Cols != cols || len(gain.v) != cols || len(shift.v) != cols || (xhat != nil && xhat.Cols != cols) {
		panic("tensor: LayerNormRows width mismatch")
	}
	groups := (hi - lo) / 8
	if tier != tierAVX512 || cols == 0 || groups == 0 || gain.nan || shift.nan {
		return lo, false
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
	n := int(lnBlock64x8(int64(groups), int64(cols), &s[0], &d[0], xp, ip, &gain.v[0], &shift.v[0], eps))
	return lo + 8*n, n < groups
}
