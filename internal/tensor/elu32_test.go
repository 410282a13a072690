package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// TestExpM1NegAccuracy sweeps the f32 ELU's polynomial exponential
// against the float64 reference over the full negative range, including
// the underflow cutoff and denormal-adjacent magnitudes. The bound is a
// handful of float32 ulps — far below the serving twin's tolerance gate.
func TestExpM1NegAccuracy(t *testing.T) {
	maxRel := 0.0
	for i := 0; i <= 2_000_000; i++ {
		v := float32(-90 * float64(i) / 2_000_000)
		got := float64(expM1Neg(v))
		want := math.Expm1(float64(v))
		rel := math.Abs(got-want) / (1 + math.Abs(want))
		if rel > maxRel {
			maxRel = rel
		}
	}
	if maxRel > 5e-7 {
		t.Fatalf("expM1Neg max rel error %g exceeds 5e-7", maxRel)
	}
	if got := expM1Neg(-1000); got != -1 {
		t.Fatalf("expM1Neg(-1000) = %v, want -1 (underflow clamp)", got)
	}
	if got := expM1Neg(0); got != 0 {
		t.Fatalf("expM1Neg(0) = %v, want 0", got)
	}
}

// TestExpM1Neg4LockstepWithScalar asserts the four-lane variant is
// bitwise-identical to the scalar function on every lane — the contract
// that makes block vs tail element placement (and hence parallel chunk
// boundaries) invisible in the f32 ELU output.
func TestExpM1Neg4LockstepWithScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200000; trial++ {
		var v [4]float32
		for j := range v {
			switch trial % 3 {
			case 0:
				v[j] = -float32(rng.Float64()) * 100
			case 1:
				v[j] = -float32(rng.Float64()) // small magnitudes
			default:
				v[j] = -float32(rng.ExpFloat64())
			}
		}
		g0, g1, g2, g3 := expM1Neg4(v[0], v[1], v[2], v[3])
		for j, got := range [4]float32{g0, g1, g2, g3} {
			if want := expM1Neg(v[j]); math.Float32bits(got) != math.Float32bits(want) {
				t.Fatalf("lane %d input %g: expM1Neg4 %x != scalar %x", j, v[j],
					math.Float32bits(got), math.Float32bits(want))
			}
		}
	}
}

// eluScalarRef is the branchy reference the vector paths must match bit
// for bit.
func eluScalarRef(y, x []float32, lo, hi int) {
	for i := lo; i < hi; i++ {
		if v := x[i]; v > 0 {
			y[i] = v
		} else {
			y[i] = expM1Neg(v)
		}
	}
}

// TestEluRange32LockstepAcrossPaths runs EluRange32 on every rung over
// random mixed-sign data at lengths and offsets either side of the 4-, 16-
// and 32-element blocks, out of place and with x aliasing
// y, and demands bitwise equality with the scalar reference and no write
// outside [lo, hi). This is the determinism contract: the 32-element zmm
// block, the 16-element ymm block, the 4-wide Go block and the scalar
// tail all round every element identically, so results cannot depend on
// chunk boundaries, thread count or rung.
func TestEluRange32LockstepAcrossPaths(t *testing.T) {
	fill := func(rng *rand.Rand, x []float32) {
		for i := range x {
			switch rng.Intn(4) {
			case 0:
				x[i] = float32(rng.NormFloat64()) * 20
			case 1:
				x[i] = float32(rng.NormFloat64()) * 0.1
			case 2:
				x[i] = -float32(rng.ExpFloat64()) * 50
			default:
				x[i] = float32(rng.ExpFloat64())
			}
		}
	}
	const canary = float32(-12345.5)
	atEachTier(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(7))
		for _, n := range []int{1, 3, 4, 5, 15, 16, 17, 31, 32, 33, 47, 48, 49, 63, 64, 65, 100, 4097} {
			for _, lo := range []int{0, 1, 5} {
				for _, hi := range []int{n, n - 3} {
					if lo >= hi {
						continue
					}
					x := make([]float32, n)
					fill(rng, x)
					want := make([]float32, n)
					for i := range want {
						want[i] = canary
					}
					eluScalarRef(want, x, lo, hi)

					y := make([]float32, n)
					for i := range y {
						y[i] = canary
					}
					EluRange32(y, x, lo, hi)
					if i := bitsEqual(y, want); i >= 0 {
						t.Fatalf("n=%d [%d, %d) elem %d input %g: got %#x want %#x", n, lo, hi, i, x[i], bitsOf(y[i]), bitsOf(want[i]))
					}
					copy(want[:lo], x[:lo])
					copy(want[hi:], x[hi:])
					EluRange32(x, x, lo, hi)
					if i := bitsEqual(x, want); i >= 0 {
						t.Fatalf("n=%d [%d, %d) in place, elem %d: got %#x want %#x", n, lo, hi, i, bitsOf(x[i]), bitsOf(want[i]))
					}
				}
			}
		}
	})
}

// TestEluRange32SpecialValues pins the edge bits on every rung, in a call
// of one ymm block and one of one zmm block:
// zeros map to +0 on every path (the polynomial normalizes -0's sign
// identically in Go and assembly), deeply negative inputs saturate to
// exactly -1, and tiny positives pass through as the identity.
func TestEluRange32SpecialValues(t *testing.T) {
	atEachTier(t, func(t *testing.T) {
		for _, n := range []int{16, 32} {
			x := make([]float32, n) // zeros pad the six values to whole blocks
			copy(x, []float32{0, float32(math.Copysign(0, -1)), -1000, -87.4, -1e-30, 1e-30})
			y := make([]float32, n)
			EluRange32(y, x, 0, n)
			if math.Float32bits(y[0]) != 0 {
				t.Fatalf("n=%d: ELU(+0) bits %x, want +0", n, math.Float32bits(y[0]))
			}
			if math.Float32bits(y[1]) != 0 {
				t.Fatalf("n=%d: ELU(-0) bits %x, want +0", n, math.Float32bits(y[1]))
			}
			if y[2] != -1 {
				t.Fatalf("n=%d: ELU(-1000) = %v, want -1", n, y[2])
			}
			if y[5] != x[5] {
				t.Fatalf("n=%d: ELU(+1e-30) = %v, want identity", n, y[5])
			}
		}
	})
}

func BenchmarkEluRange32(b *testing.B) {
	const n = 1 << 20
	x := make([]float32, n)
	y := make([]float32, n)
	for i := range x {
		x[i] = float32(math.Sin(float64(i))) * 2
	}
	for k := tierAVX512; k >= tierGo; k-- {
		b.Run(k.String(), func(b *testing.B) {
			if k > cpuTier {
				b.Skipf("rung %v not run: this CPU's top rung is %v", k, cpuTier)
			}
			defer setKernelTier(setKernelTier(k))
			b.SetBytes(n * 4)
			for i := 0; i < b.N; i++ {
				EluRange32(y, x, 0, n)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/elem")
		})
	}
}
