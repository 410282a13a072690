package tensor

import "math"

// Float64 elementwise tier: the ELU forward and derivative maps every MLP
// block runs between its GEMMs (training, both float64 inference engines,
// serving), plus the add kernel behind AddRowVectorRows and AddTo in
// ops.go. Every path is BITWISE-IDENTICAL per element, so results do not
// depend on chunk boundaries, thread count, which rung of the kernel tier
// runs, or the architecture.
//
// The float64 ELU has one definition, Elu below: a fixed sequence of fused
// multiply-adds (math.FMA) and single correctly rounded IEEE operations,
// so it has the same bits wherever it runs. The go rung calls it per
// element; the SIMD kernels (elu64_amd64.s) replay it instruction for
// instruction on four ymm lanes (eluBlock64, tierAVX2) or eight zmm lanes
// (eluBlock64x8, tierAVX512), four independent vectors per iteration and
// the last partial vector through masked lanes. Every input is theirs —
// NaN and ±Inf included — so EluRange is one kernel call per range.
//
// The ELU′ and add kernels are plain IEEE adds and multiplies over the
// leading whole vectors of a range, the scalar loop doing the rest.

// The constants of Elu; elu64_amd64.s holds the same bits.
const (
	// eluClamp bounds the reduction: below about −37.43, exp(v) − 1
	// rounds to −1, which the sequence returns for every v ≤ eluClamp,
	// and 2^t stays a normal number.
	eluClamp = -40.0
	eluLog2e = 1.4426950408889634 // 1/ln 2
	// eluShifter is 1.5·2⁵²: fma(w, log2e, shifter) rounds w·log2e to the
	// nearest integer t in the low bits of its significand.
	eluShifter = 0x1.8p52
	// ln 2 = eluLn2Hi + eluLn2Lo; eluLn2Hi has 32 significant bits, so
	// t·eluLn2Hi is exact and w − t·eluLn2Hi cancels without error.
	eluLn2Hi = 6.93147180369123816490e-01
	eluLn2Lo = 1.90821492927058770002e-10
)

// eluQ are the coefficients of q(r) = (e^r − 1 − r)/r², lowest first: the
// Taylor series 1/(j+2)!, which makes r + r²·q(r) the degree-13 Taylor
// polynomial of e^r − 1. On |r| ≤ ln2/2 its truncation error is below a
// tenth of an ulp of the result.
var eluQ = [12]float64{
	1.0 / 2, 1.0 / 6, 1.0 / 24, 1.0 / 120, 1.0 / 720, 1.0 / 5040,
	1.0 / 40320, 1.0 / 362880, 1.0 / 3628800, 1.0 / 39916800,
	1.0 / 479001600, 1.0 / 6227020800,
}

// Elu is the float64 ELU: v for v > 0 (and for NaN, bit for bit), else
// e^v − 1 by
//
//	w  = max(v, eluClamp)
//	kd = fma(w, log2e, shifter); t = kd − shifter      t = round(w/ln2)
//	r  = fma(−t, ln2Lo, fma(−t, ln2Hi, w))             w − t·ln2
//	e  = fma(q(r), r·r, r)                             e^r − 1, q by Horner in fma
//	s  = 2^t, built from kd's low bits in the exponent field
//	     fma(s, e, s − 1)                              2^t·e^r − 1
//
// Every step is one math.FMA or one rounded IEEE operation, so the result
// is the same on every kernel rung and every GOARCH. It is within 1 ulp of
// math.Expm1 on (eluClamp, 0] with no cancellation near 0 (a negative
// subnormal returns itself), exactly −1 at and below eluClamp and for
// −Inf, and +0 for ±0.
func Elu(v float64) float64 {
	if !(v <= 0) {
		return v
	}
	w := max(v, eluClamp)
	kd := math.FMA(w, eluLog2e, eluShifter)
	t := kd - eluShifter
	r := math.FMA(-t, eluLn2Hi, w)
	r = math.FMA(-t, eluLn2Lo, r)
	q := eluQ[11]
	for j := 10; j >= 0; j-- {
		q = math.FMA(q, r, eluQ[j])
	}
	// The float64 conversions round r·r and s − 1 on their own: no
	// compiler may fuse them into a neighbouring operation.
	e := math.FMA(q, float64(r*r), r)
	// kd's significand ends in t (two's complement); shifted into the
	// exponent field with the bias added, it is 2^t.
	s := math.Float64frombits((math.Float64bits(kd) + 1023) << 52)
	return math.FMA(s, e, float64(s-1))
}

// tierLanes is the block width of each rung's float64 ELU′ and add
// kernels, 0 for none.
var tierLanes = [...]int{tierGo: 0, tierAVX2: 4, tierAVX512: 8}

// vecLanes is the block width of the add and ELU′ kernels.
func vecLanes() int { return tierLanes[tier] }

// EluRange writes y[i] = Elu(x[i]) for i in [lo, hi). x and y may alias.
func EluRange(y, x []float64, lo, hi int) {
	if hi <= lo {
		return
	}
	if tier >= tierAVX2 {
		_, _ = x[hi-1], y[hi-1] // the kernels read and write up to hi unchecked
		if tier == tierAVX512 {
			eluBlock64x8(int64(hi-lo), &x[lo], &y[lo])
		} else {
			eluBlock64(int64(hi-lo), &x[lo], &y[lo])
		}
		return
	}
	for i := lo; i < hi; i++ {
		y[i] = Elu(x[i])
	}
}

// EluGradRange writes dx[i] = g[i]·ELU′ for i in [lo, hi), from the
// activation's OUTPUT y: g[i] where y[i] > 0, else g[i]·(y[i]+1), since
// d/dx (e^x - 1) = e^x = y + 1. dx and g may alias.
func EluGradRange(dx, g, y []float64, lo, hi int) {
	i := lo
	if w := vecLanes(); w > 0 && hi-lo >= w {
		i += (hi - lo) &^ (w - 1)
		_, _, _ = y[i-1], g[i-1], dx[i-1] // the kernels read and write up to i unchecked
		if n := int64(i - lo); w == 8 {
			eluGradBlock64x8(n, &y[lo], &g[lo], &dx[lo])
		} else {
			eluGradBlock64(n, &y[lo], &g[lo], &dx[lo])
		}
	}
	eluGradScalar(dx, g, y, i, hi)
}

func eluGradScalar(dx, g, y []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		if yv := y[i]; yv > 0 {
			dx[i] = g[i]
		} else {
			dx[i] = g[i] * (yv + 1)
		}
	}
}

// addScalar is the add map's scalar definition, dst[j] += v[j].
func addScalar(dst, v []float64, lo, hi int) {
	for j := lo; j < hi; j++ {
		dst[j] += v[j]
	}
}
