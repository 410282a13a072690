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

// fillElu32 draws mixed-sign ELU inputs: large and small normals, deep
// negatives and positives.
func fillElu32(rng *rand.Rand, x []float32) {
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

// TestEluRange32LockstepAcrossPaths runs EluRange32 on the go rung over
// random mixed-sign data at lengths and offsets either side of the 4-wide
// block, out of place and with x aliasing y, and demands bitwise equality
// with the scalar expM1Neg and no write outside [lo, hi): the 4-wide Go
// block and the scalar tail round every element identically, so results
// cannot depend on chunk boundaries or thread count on that rung. (The
// SIMD rungs have their own definition: TestEluRange32FusedAcrossRungs.)
func TestEluRange32LockstepAcrossPaths(t *testing.T) {
	t.Run(tierGo.String(), func(t *testing.T) {
		defer setKernelTier(setKernelTier(tierGo))
		const canary = float32(-12345.5)
		rng := rand.New(rand.NewSource(7))
		for _, n := range []int{1, 3, 4, 5, 15, 16, 17, 31, 32, 33, 100, 4097} {
			for _, lo := range []int{0, 1, 5} {
				for _, hi := range []int{n, n - 3} {
					if lo >= hi {
						continue
					}
					x := make([]float32, n)
					fillElu32(rng, x)
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

// fma32 is a·b + c rounded once to float32, as VFMADD*PS computes it: the
// product is exact in float64 (24 + 24 significant bits), the sum is
// rounded to float64 with its error recovered by TwoSum, and an inexact sum
// is rounded to odd (moved to its odd neighbour toward the error), which
// makes the final conversion to float32 round once — ties included.
func fma32(a, b, c float32) float32 {
	p, q := float64(a)*float64(b), float64(c)
	s := p + q
	bb := s - p
	e := (p - (s - bb)) + (q - bb)
	if e != 0 && math.Float64bits(s)&1 == 0 {
		s = math.Nextafter(s, math.Copysign(math.Inf(1), e))
	}
	return float32(s)
}

// eluFused32 is the SIMD rungs' float32 ELU written out in Go from its
// definition (elu32_amd64.s), sharing no code with the kernels: the
// clamped input, k rounded to nearest even, the fused reduction and
// Horner steps (fma32), and 2^k applied by one rounded product and one
// rounded add.
func eluFused32(v float32) float32 {
	if !(v <= 0) { // positive or NaN: the identity
		return v
	}
	w := max(v, expUnder)
	f := float32(math.RoundToEven(float64(float32(w * expInvLn2))))
	r := fma32(-f, expLn2Hi, w)
	r = fma32(-f, expLn2Lo, r)
	z := float32(1.9875691500e-4)
	for _, c := range []float32{1.3981999507e-3, 8.3334519073e-3, 4.1665795894e-2, 1.6666665459e-1, 5.0000001201e-1} {
		z = fma32(z, r, c)
	}
	pm1 := fma32(z, float32(r*r), r)
	scale := float32(math.Ldexp(1, int(f))) // f >= -126: a normal float32
	return float32(scale*pm1) + (scale - 1)
}

// ulps32 is |got − want| in units of the float32 spacing at want.
func ulps32(got float32, want float64) float64 {
	w := float32(math.Abs(want))
	return math.Abs(float64(got)-want) / float64(math.Nextafter32(w, float32(math.Inf(1)))-w)
}

// eluSpecials32 are the float32 ELU's edge inputs: signed zeros, a deep and
// an infinite negative, a value past the underflow clamp, tiny values
// either side of zero, +Inf and NaN.
var eluSpecials32 = []float32{0, float32(math.Copysign(0, -1)), -1000, float32(math.Inf(-1)), -87.4,
	1e-30, -1e-30, float32(math.Inf(1)), float32(math.NaN())}

// TestEluRange32SpecialValues pins the edge bits on every rung, in a call
// of nine elements (a masked tail on the SIMD rungs), one of one ymm block
// and one of one zmm block: zeros map to +0 on every path, deeply negative
// and infinite inputs saturate to exactly -1, -87.4 is within 2 ulp of
// exp(-87.4)-1, and tiny positives, +Inf and NaN pass through as the
// identity.
func TestEluRange32SpecialValues(t *testing.T) {
	atEachTier(t, func(t *testing.T) {
		for _, n := range []int{len(eluSpecials32), 16, 32} {
			x := make([]float32, n) // zeros pad the specials to whole blocks
			copy(x, eluSpecials32)
			y := make([]float32, n)
			EluRange32(y, x, 0, n)
			for i, want := range []float32{0, 0, -1, -1} {
				if bitsOf(y[i]) != bitsOf(want) {
					t.Errorf("n=%d: ELU(%v) bits %#x, want %v", n, x[i], bitsOf(y[i]), want)
				}
			}
			if y[5] != x[5] || y[7] != x[7] || y[8] == y[8] {
				t.Errorf("n=%d: ELU(1e-30), ELU(+Inf), ELU(NaN) = %v, %v, %v; want the identity", n, y[5], y[7], y[8])
			}
			if d := ulps32(y[4], math.Expm1(-87.4)); d > 2 {
				t.Errorf("n=%d: ELU(-87.4) = %v, %.2f ulp from exp(-87.4)-1", n, y[4], d)
			}
		}
	})
}

// TestEluRange32FusedAcrossRungs holds the SIMD rungs' float32 ELU to its
// definition. On avx2 and on avx512, at every length 1…100 and 4097,
// lo ∈ {0, 1, 5} and hi ∈ {n, n−3}, in place and out of place, every
// element is bitwise eluFused32 of its input — the masked tails round
// like the whole groups — and nothing outside [lo, hi) is written; then
// the two rungs' answers are compared with each other bit for bit. The
// special values of TestEluRange32SpecialValues are planted among the
// random ones. Every rung, go included, is within 2 ulp of math.Expm1 over
// [−90, 0].
func TestEluRange32FusedAcrossRungs(t *testing.T) {
	type span struct {
		x      []float32
		lo, hi int
	}
	var spans []span
	rng := rand.New(rand.NewSource(36))
	lengths := []int{4097}
	for n := 1; n <= 100; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		x := make([]float32, n)
		fillElu32(rng, x)
		for i := range x {
			if rng.Intn(8) == 0 {
				x[i] = eluSpecials32[rng.Intn(len(eluSpecials32))]
			}
		}
		for _, lo := range []int{0, 1, 5} {
			for _, hi := range []int{n, n - 3} {
				if lo < hi {
					spans = append(spans, span{x, lo, hi})
				}
			}
		}
	}
	sweep := make([]float32, 1<<20+1)
	for i := range sweep {
		sweep[i] = float32(-90 * float64(i) / (1 << 20))
	}

	const canary = float32(-12345.5)
	answers := map[kernelTier][]float32{}
	atEachTier(t, func(t *testing.T) {
		if tier >= tierAVX2 {
			var all []float32
			for _, c := range spans {
				y := make([]float32, len(c.x))
				for i := range y {
					y[i] = canary
				}
				EluRange32(y, c.x, c.lo, c.hi)
				xi := append([]float32(nil), c.x...)
				EluRange32(xi, xi, c.lo, c.hi)
				for i, v := range c.x {
					want, wantIn := canary, v
					if i >= c.lo && i < c.hi {
						want = eluFused32(v)
						wantIn = want
					}
					if bitsOf(y[i]) != bitsOf(want) || bitsOf(xi[i]) != bitsOf(wantIn) {
						t.Fatalf("n=%d [%d, %d) elem %d input %g (%#x): got %#x out of place, %#x in place, want %#x / %#x",
							len(c.x), c.lo, c.hi, i, v, bitsOf(v), bitsOf(y[i]), bitsOf(xi[i]), bitsOf(want), bitsOf(wantIn))
					}
				}
				all = append(all, y...)
			}
			answers[tier] = all
		}

		y := make([]float32, len(sweep))
		EluRange32(y, sweep, 0, len(sweep))
		worst, at := 0.0, float32(0)
		for i, v := range sweep {
			if d := ulps32(y[i], math.Expm1(float64(v))); d > worst {
				worst, at = d, v
			}
		}
		t.Logf("max error %.2f ulp (at %v)", worst, at)
		if worst > 2 {
			t.Errorf("max error %.2f ulp against math.Expm1 at %v, want <= 2", worst, at)
		}
	})
	if a, b := answers[tierAVX512], answers[tierAVX2]; a != nil && b != nil {
		if i := bitsEqual(a, b); i >= 0 {
			t.Fatalf("answer %d: avx512 %#x, avx2 %#x", i, bitsOf(a[i]), bitsOf(b[i]))
		}
	}
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
