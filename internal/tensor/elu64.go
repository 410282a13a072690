package tensor

import "math"

// Float64 elementwise tier: the ELU forward and derivative maps every MLP
// block runs between its GEMMs (training, both float64 inference engines,
// serving), plus the add kernel behind AddRowVectorRows and
// ColSumsAcc in ops.go. Like the f32 tier in elu32.go, every path is
// BITWISE-IDENTICAL per element, so results do not depend on chunk
// boundaries, thread count or which rung of the kernel tier runs — but
// here the scalar is the reference and the kernel the replica: EluRange's
// assembly is math.Exp's own amd64 instruction sequence (see
// elu64_amd64.s), not a polynomial of ours, on four ymm lanes (tierAVX2)
// or eight zmm lanes (tierAVX512). The 8-lane replica replays the same
// sequence with the AVX-512 spellings of the conversions and the blend and
// its constants held in registers; nothing about the arithmetic differs.
//
// The kernels stop at any block they cannot reproduce exactly (NaN, -Inf
// or v < -700 for the exponential; NaN operands for the other two) and
// the scalar loop does that block, so the only inputs that take the slow
// road are ones a healthy model never produces.

// elu64Exact records, once at init and per rung, that the rung's
// exponential kernel may be used: the CPU has it and it agrees with
// math.Exp on elu64Probe. The second half is not a formality. math.Exp
// takes its FMA path on internal/cpu's word (which GODEBUG=cpu.fma=off
// overrides) while detectSIMD reads CPUID itself, and a future toolchain
// may change archExp; either would make kernel and fallback disagree
// silently. A rung whose probe fails loses only this kernel — EluRange
// drops to the next exact rung below, the GEMM tiles and the other two
// elementwise maps (plain IEEE adds and multiplies) are unaffected.
var elu64Exact = [...]bool{
	tierGo:     false,
	tierAVX2:   cpuTier >= tierAVX2 && elu64Probe(tierLanes[tierAVX2]),
	tierAVX512: cpuTier >= tierAVX512 && elu64Probe(tierLanes[tierAVX512]),
}

// tierLanes is the block width of each rung's float64 elementwise
// kernels, 0 for none.
var tierLanes = [...]int{tierGo: 0, tierAVX2: 4, tierAVX512: 8}

// vecLanes is the block width of the add and ELU′ kernels.
func vecLanes() int { return tierLanes[tier] }

// eluLanes is the block width of the exponential kernel: the widest one at
// or below the current rung that passed its probe, 0 for none.
func eluLanes() int {
	for t := tier; t > tierGo; t-- {
		if elu64Exact[t] {
			return tierLanes[t]
		}
	}
	return 0
}

// The kernels by block width w (4 or 8); n is a multiple of w.

func eluBlock(w int, n int64, x, y *float64) int64 {
	if w == 8 {
		return eluBlock64x8(n, x, y)
	}
	return eluBlock64(n, x, y)
}

func eluGradBlock(w int, n int64, y, dy, dx *float64) int64 {
	if w == 8 {
		return eluGradBlock64x8(n, y, dy, dx)
	}
	return eluGradBlock64(n, y, dy, dx)
}

// elu64Probe compares the lanes-wide kernel with math.Exp on 512
// negatives: 384 evenly spaced over (-3, 0], where exp(v)-1 keeps the low
// bits of exp(v) (the non-FMA archExp differs from the FMA one on about 1
// in 15 of those), and 128 over (-700, 0], the rest of the range the
// kernel computes itself. Below about -37 every exp(v)-1 rounds to -1, so
// there a difference in exp could not reach an ELU output anyway.
func elu64Probe(lanes int) bool {
	var x, y [512]float64
	for i := range x {
		if i < 384 {
			x[i] = -3 * (float64(i) + 0.5) / 384
		} else {
			x[i] = -700 * (float64(i-384) + 0.5) / 128
		}
	}
	if eluBlock(lanes, int64(len(x)), &x[0], &y[0]) != int64(len(x)) {
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
	if w := eluLanes(); w > 0 {
		for hi-i >= w {
			i += int(eluBlock(w, int64((hi-i)&^(w-1)), &x[i], &y[i]))
			if hi-i >= w { // the kernel stopped at this block
				eluScalar(y, x, i, i+w)
				i += w
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
	if w := vecLanes(); w > 0 {
		for hi-i >= w {
			i += int(eluGradBlock(w, int64((hi-i)&^(w-1)), &y[i], &g[i], &dx[i]))
			if hi-i >= w {
				eluGradScalar(dx, g, y, i, i+w)
				i += w
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

// addScalar is the add map's scalar definition, dst[j] += v[j].
func addScalar(dst, v []float64, lo, hi int) {
	for j := lo; j < hi; j++ {
		dst[j] += v[j]
	}
}
