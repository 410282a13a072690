package tensor

import "math"

// Float64 elementwise tier: the ELU forward and derivative maps every MLP
// block runs between its GEMMs (training, both float64 inference engines,
// serving), plus the AVX2 body of AddRowVectorRows in ops.go. Like the f32
// tier in elu32.go, every path is BITWISE-IDENTICAL per element, so
// results do not depend on chunk boundaries, thread count or SIMD
// availability — but here the scalar is the reference and the kernel the
// replica: EluRange's assembly is math.Exp's own amd64 instruction
// sequence on four lanes (see elu64_amd64.s), not a polynomial of ours.
//
// The kernels stop at any 4-block they cannot reproduce exactly (NaN,
// -Inf or v < -700 for the exponential; NaN operands for the other two)
// and the scalar loop does that block, so the only inputs that take the
// slow road are ones a healthy model never produces.

// elu64Exact records, once at init, that the exponential kernel may be
// used: the CPU has it and it agrees with math.Exp on elu64Probe. The
// second half is not a formality. math.Exp takes its FMA path on
// internal/cpu's word (which GODEBUG=cpu.fma=off overrides) while
// detectSIMD reads CPUID itself, and a future toolchain may change
// archExp; either would make kernel and fallback disagree silently.
var elu64Exact = detectSIMD() && elu64Probe()

// simdELU64 gates eluBlock64; simdELU (elu32.go) gates the other two
// kernels, which replay plain Go arithmetic and need no probe.
var simdELU64 = elu64Exact

// elu64Probe compares the kernel with math.Exp on 512 negatives: 384
// evenly spaced over (-3, 0], where exp(v)-1 keeps the low bits of exp(v)
// (the non-FMA archExp differs from the FMA one on about 1 in 15 of
// those), and 128 over (-700, 0], the rest of the range the kernel
// computes itself. Below about -37 every exp(v)-1 rounds to -1, so there
// a difference in exp could not reach an ELU output anyway.
func elu64Probe() bool {
	var x, y [512]float64
	for i := range x {
		if i < 384 {
			x[i] = -3 * (float64(i) + 0.5) / 384
		} else {
			x[i] = -700 * (float64(i-384) + 0.5) / 128
		}
	}
	if eluBlock64(int64(len(x)), &x[0], &y[0]) != int64(len(x)) {
		return false
	}
	for i, v := range x {
		if math.Float64bits(y[i]) != math.Float64bits(math.Exp(v)-1) {
			return false
		}
	}
	return true
}

// EluRange writes y[i] = ELU(x[i]) = x[i] if x[i] > 0, else
// math.Exp(x[i]) - 1, for i in [lo, hi). x and y may alias.
func EluRange(y, x []float64, lo, hi int) {
	i := lo
	if simdELU64 {
		for hi-i >= 4 {
			i += int(eluBlock64(int64((hi-i)&^3), &x[i], &y[i]))
			if hi-i >= 4 { // the kernel stopped at this block
				eluScalar(y, x, i, i+4)
				i += 4
			}
		}
	}
	eluScalar(y, x, i, hi)
}

func eluScalar(y, x []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		if v := x[i]; v > 0 {
			y[i] = v
		} else {
			y[i] = math.Exp(v) - 1
		}
	}
}

// EluGradRange writes dx[i] = g[i]·ELU′ for i in [lo, hi), from the
// activation's OUTPUT y: g[i] where y[i] > 0, else g[i]·(y[i]+1), since
// d/dx (e^x - 1) = e^x = y + 1. dx and g may alias.
func EluGradRange(dx, g, y []float64, lo, hi int) {
	i := lo
	if simdELU {
		for hi-i >= 4 {
			i += int(eluGradBlock64(int64((hi-i)&^3), &y[i], &g[i], &dx[i]))
			if hi-i >= 4 {
				eluGradScalar(dx, g, y, i, i+4)
				i += 4
			}
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
