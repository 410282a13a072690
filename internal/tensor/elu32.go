package tensor

import "math"

// Float32 ELU kernel tier. EluRange32 is the elementwise
// y = v (v > 0), exp(v)-1 (v <= 0) map the f32 serving twin spends most
// of its time in. Like the float32 GEMM tiles beside it, it has one
// definition on the SIMD rungs and another on the go rung:
//
//	eluBlock32x16   zmm, 32 elements a loop, masked tail   avx512
//	eluBlock32      ymm, 16 elements a loop, masked tail   avx2
//	expM1Neg4       4 elements, interleaved in Go          go
//	expM1Neg        1 element, the go rung's definition    go
//
// The SIMD rungs evaluate the exponential with fused multiply-adds — the
// reduction r = w − k·ln2 by two fused negated multiply-adds, the
// polynomial by fused Horner steps, exp(r)−1 = fma(P, r², r) — with k
// rounded to nearest even, and then 2^k·(exp(r)−1) + (2^k − 1) as a
// rounded product and a rounded add (elu32_amd64.s has the sequence). The
// two SIMD kernels are bit-for-bit equal, and each takes every element of
// the range itself, its tail through masked lanes, so neither chunk
// boundaries nor the thread count show in a bit. The go rung has no FMA:
// expM1Neg4 and expM1Neg replay the unfused sequence below and agree with
// each other element for element. The two sides round differently, as the
// float32 GEMM's do (pack.go); both are within 2 ulp of exp(v)−1.

// EluRange32 writes y[i] = ELU(x[i]) for i in [lo, hi). x and y may
// alias. The exponential is evaluated entirely in single precision — below
// the serving twin's representation error.
func EluRange32(y, x []float32, lo, hi int) {
	if hi <= lo {
		return
	}
	if tier >= tierAVX2 {
		_, _ = x[hi-1], y[hi-1] // the kernels read and write up to hi unchecked
		if tier == tierAVX512 {
			eluBlock32x16(int64(hi-lo), &x[lo], &y[lo])
		} else {
			eluBlock32(int64(hi-lo), &x[lo], &y[lo])
		}
		return
	}
	i := lo
	// Four elements per iteration: the polynomial is a serial dependency
	// chain, so one lane is latency-bound — four independent chains let
	// the CPU pipeline them. The exponential is evaluated unconditionally
	// on min(v, 0) (branchless, exact) and the positive lanes select the
	// identity afterwards.
	for ; i+4 <= hi; i += 4 {
		v0, v1, v2, v3 := x[i], x[i+1], x[i+2], x[i+3]
		e0, e1, e2, e3 := expM1Neg4(minZero32(v0), minZero32(v1), minZero32(v2), minZero32(v3))
		if v0 > 0 {
			e0 = v0
		}
		if v1 > 0 {
			e1 = v1
		}
		if v2 > 0 {
			e2 = v2
		}
		if v3 > 0 {
			e3 = v3
		}
		y[i], y[i+1], y[i+2], y[i+3] = e0, e1, e2, e3
	}
	for ; i < hi; i++ {
		v := x[i]
		if v > 0 {
			y[i] = v
		} else {
			y[i] = expM1Neg(v)
		}
	}
}

// minZero32 returns min(v, 0) without a branch: v - |v| is 0 for v >= 0
// and exactly 2v for v < 0, and halving a float32 is exact.
func minZero32(v float32) float32 {
	return 0.5 * (v - math.Float32frombits(math.Float32bits(v)&^(1<<31)))
}

// Cephes-style expf constants: ln2 split hi/lo so r = v - k·ln2 is exact
// in float32, and the minimax polynomial for exp(r)-1 on [-ln2/2, ln2/2].
const (
	expInvLn2 = float32(1.44269504088896341)
	expLn2Hi  = float32(0.693359375)
	expLn2Lo  = float32(-2.12194440e-4)
	expUnder  = float32(-87.33654) // below this exp underflows float32
)

// expM1Neg returns exp(v)-1 for v <= 0, evaluated entirely in float32
// (~2-3 ulp): k = floor(v/ln2 + 1/2), r = v - k·ln2, exp(r)-1 by
// polynomial in the cancellation-free r + r²·P(r) form, and
// exp(v)-1 = 2^k·(exp(r)-1) + (2^k - 1), which reduces to the raw
// polynomial when k = 0 (scale 1 is exact) so the small |v| that
// dominate post-LayerNorm activations lose nothing. Inputs below the
// float32 underflow threshold clamp to it, where the result rounds to
// exactly -1. The floor uses the add-large-bias trick (truncation of a
// positive value) and the 2^k scale is built directly in the exponent
// field, so the whole path is branch-free — a pure per-element function,
// leaving thread/rank bitwise determinism untouched.
//
// This is the go rung's definition: expM1Neg4 below replays it exactly,
// lane by lane, so the two produce identical bits. Keep them in lockstep
// when changing either.
func expM1Neg(v float32) float32 {
	if v < expUnder {
		v = expUnder
	}
	k := int32(v*expInvLn2+(0.5+16384)) - 16384 // floor: biased positive, truncated
	fk := float32(k)
	r := v - fk*expLn2Hi
	r -= fk * expLn2Lo
	z := float32(1.9875691500e-4)
	z = z*r + 1.3981999507e-3
	z = z*r + 8.3334519073e-3
	z = z*r + 4.1665795894e-2
	z = z*r + 1.6666665459e-1
	z = z*r + 5.0000001201e-1
	pm1 := z*r*r + r                                   // exp(r) - 1
	scale := math.Float32frombits(uint32(k+127) << 23) // 2^k; k in [-126, 0]
	return scale*pm1 + (scale - 1)
}

// expM1Neg4 is expM1Neg over four independent lanes, step-interleaved so
// the four serial dependency chains overlap in the pipeline. Each lane
// performs exactly the scalar operation sequence (bitwise-identical
// results).
func expM1Neg4(v0, v1, v2, v3 float32) (float32, float32, float32, float32) {
	if v0 < expUnder {
		v0 = expUnder
	}
	if v1 < expUnder {
		v1 = expUnder
	}
	if v2 < expUnder {
		v2 = expUnder
	}
	if v3 < expUnder {
		v3 = expUnder
	}
	k0 := int32(v0*expInvLn2+(0.5+16384)) - 16384
	k1 := int32(v1*expInvLn2+(0.5+16384)) - 16384
	k2 := int32(v2*expInvLn2+(0.5+16384)) - 16384
	k3 := int32(v3*expInvLn2+(0.5+16384)) - 16384
	fk0, fk1, fk2, fk3 := float32(k0), float32(k1), float32(k2), float32(k3)
	r0 := v0 - fk0*expLn2Hi
	r1 := v1 - fk1*expLn2Hi
	r2 := v2 - fk2*expLn2Hi
	r3 := v3 - fk3*expLn2Hi
	r0 -= fk0 * expLn2Lo
	r1 -= fk1 * expLn2Lo
	r2 -= fk2 * expLn2Lo
	r3 -= fk3 * expLn2Lo
	const c5, c4, c3, c2, c1, c0 = 1.9875691500e-4, 1.3981999507e-3,
		8.3334519073e-3, 4.1665795894e-2, 1.6666665459e-1, 5.0000001201e-1
	z0 := float32(c5)
	z1 := float32(c5)
	z2 := float32(c5)
	z3 := float32(c5)
	z0 = z0*r0 + c4
	z1 = z1*r1 + c4
	z2 = z2*r2 + c4
	z3 = z3*r3 + c4
	z0 = z0*r0 + c3
	z1 = z1*r1 + c3
	z2 = z2*r2 + c3
	z3 = z3*r3 + c3
	z0 = z0*r0 + c2
	z1 = z1*r1 + c2
	z2 = z2*r2 + c2
	z3 = z3*r3 + c2
	z0 = z0*r0 + c1
	z1 = z1*r1 + c1
	z2 = z2*r2 + c1
	z3 = z3*r3 + c1
	z0 = z0*r0 + c0
	z1 = z1*r1 + c0
	z2 = z2*r2 + c0
	z3 = z3*r3 + c0
	p0 := z0*r0*r0 + r0
	p1 := z1*r1*r1 + r1
	p2 := z2*r2*r2 + r2
	p3 := z3*r3*r3 + r3
	s0 := math.Float32frombits(uint32(k0+127) << 23)
	s1 := math.Float32frombits(uint32(k1+127) << 23)
	s2 := math.Float32frombits(uint32(k2+127) << 23)
	s3 := math.Float32frombits(uint32(k3+127) << 23)
	return s0*p0 + (s0 - 1), s1*p1 + (s1 - 1), s2*p2 + (s2 - 1), s3*p3 + (s3 - 1)
}
