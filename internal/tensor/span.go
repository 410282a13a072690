package tensor

// SpanAcc adds one CSR span of rows into dst, the per-row accumulation of
// the message-passing layer's gathers (a receiver's incoming edges, a
// sender's outgoing ones, an owner's halo copies): for k = 0 … n−1 in
// ascending order, with row r = base + idx[k] (idx not nil) or base + k,
//
//	dst[j] += T(scale[k]) · src[r·stride + j]     (scale not nil)
//	dst[j] += src[r·stride + j]                   (scale nil)
//
// for every column j < len(dst), the product rounded before its add. Its
// definition is that loop, which lives with the callers (internal/gnn's
// aggRow, absorbHalo and scatterTask); SpanAcc is its SIMD rung. The
// kernel (colacc_amd64.s) holds up to four vectors of dst in registers
// through the whole span, the columns past the last whole vector in
// masked lanes, and reports whether it did the span. On the go rung, and
// wherever an index or the span leaves src, it does nothing and reports
// false: the caller's loop does everything (and panics where it should).
// An empty span is done at once.
func SpanAcc[T float](dst, src []T, stride, base int, idx []int, n int, scale []float64) bool {
	w := len(dst)
	if n == 0 {
		return true
	}
	if tier < tierAVX2 || w == 0 || stride <= 0 || base < 0 || base*stride > len(src) {
		return false
	}
	var ip *int
	if idx != nil {
		ip = &idx[:n][0]
	}
	var sp *float64
	if scale != nil {
		sp = &scale[:n][0]
	}
	src = src[base*stride:]
	if len(src) < w {
		return false
	}
	// Rows r with r·stride + w <= len(src): the kernel reads no other, and
	// stops at an index past them.
	rows := (len(src)-w)/stride + 1
	if idx == nil && n > rows {
		return false
	}
	var done int64
	switch d := any(dst).(type) {
	case []float64:
		s := any(src).([]float64)
		if tier == tierAVX512 {
			done = spanAcc64x8(int64(n), int64(w), int64(stride), int64(rows), &s[0], ip, sp, &d[0])
		} else {
			done = spanAcc64(int64(n), int64(w), int64(stride), int64(rows), &s[0], ip, sp, &d[0])
		}
	case []float32:
		s := any(src).([]float32)
		if tier == tierAVX512 {
			done = spanAcc32x16(int64(n), int64(w), int64(stride), int64(rows), &s[0], ip, sp, &d[0])
		} else {
			done = spanAcc32(int64(n), int64(w), int64(stride), int64(rows), &s[0], ip, sp, &d[0])
		}
	}
	return done == int64(w)
}
