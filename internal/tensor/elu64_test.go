package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// elu64Inputs is the sweep the float64 ELU paths must agree on bit for
// bit: the distributions activations actually have, the whole range the
// exponential computes, everything around its clamp and its special
// values, and raw bit patterns for whatever nobody thought of. Over two
// million values.
func elu64Inputs() []float64 {
	rng := rand.New(rand.NewSource(64))
	var x []float64
	for i := 0; i < 400_000; i++ {
		x = append(x,
			rng.NormFloat64(),
			5*rng.NormFloat64(),
			1e-8*rng.NormFloat64(),
			-750*rng.Float64(),
			math.Float64frombits(rng.Uint64()))
	}
	x = append(x, elu64Edges...)
	// Every edge in every lane position among ordinary neighbours, and
	// edges side by side.
	for _, e := range elu64Edges {
		for lane := 0; lane < 8; lane++ {
			block := [8]float64{-0.5, 0.25, -1, -2, 3, -0.125, -30, 1}
			block[lane] = e
			x = append(x, block[:]...)
		}
	}
	return x
}

// elu64Edges are the float64 ELU's special inputs: signed zeros, the
// infinities, NaNs of every kind, the smallest and largest magnitudes,
// and the clamp and the point where e^v − 1 first rounds to −1, each with
// its neighbours.
var elu64Edges = func() []float64 {
	edges := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0x7ff0000000000001), // signalling NaN
		math.Float64frombits(0xfff8000000000123), // negative NaN with a payload
		math.Float64frombits(0xfff4dead0000beef), // negative signalling NaN with a payload
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, -1e-310, -0x1p-1022,
		-math.MaxFloat64, math.MaxFloat64}
	for _, v := range []float64{eluClamp, -37.42994775023705, -0.5 * math.Ln2, -math.Ln2} {
		edges = append(edges, math.Nextafter(v, 0), v, math.Nextafter(v, -1000))
	}
	return edges
}()

// ulps64 is how many float64 values lie between got and want, both <= 0.
func ulps64(got, want float64) int64 {
	if got == want { // ±0 included
		return 0
	}
	d := int64(math.Float64bits(-got)) - int64(math.Float64bits(-want))
	return max(d, -d)
}

func sameBits(t *testing.T, what string, got, want, in []float64, lo, hi int) {
	t.Helper()
	for i := lo; i < hi; i++ {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d, input %v (%#x): got %#x want %#x", what, i, in[i],
				math.Float64bits(in[i]), math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// matchesDef is sameBits under the contract mismatch checks: which NaN is
// not compared.
func matchesDef(t *testing.T, what string, got, want, in []float64, lo, hi int) {
	t.Helper()
	if i := mismatch(got[lo:hi], want[lo:hi]); i >= 0 {
		i += lo
		t.Fatalf("%s: element %d, input %v (%#x): got %#x want %#x", what, i, in[i],
			math.Float64bits(in[i]), math.Float64bits(got[i]), math.Float64bits(want[i]))
	}
}

// guard64 fills the words of y outside [lo, hi) a range must not write.
var guard64 = math.Float64frombits(0x7ff4badc0ffee000)

// checkGuards fails if anything outside [lo, hi) of y is not guard64.
func checkGuards(t *testing.T, what string, y []float64, lo, hi int) {
	t.Helper()
	for i, v := range y {
		if (i < lo || i >= hi) && math.Float64bits(v) != math.Float64bits(guard64) {
			t.Fatalf("%s: range [%d,%d) wrote element %d", what, lo, hi, i)
		}
	}
}

// TestElu64KernelsMatchDefinition is the premise of the float64 ELU
// kernels, shown rather than assumed: whatever path an element takes —
// one of a kernel's four chains, its single-vector loop, its masked tail,
// or no kernel at all — its bits are those of Elu. On every rung, over the
// whole sweep out of place and in place, at every length 0…40 and every
// misalignment of both ends of a long range, each with guard words around
// the range that must come back untouched.
func TestElu64KernelsMatchDefinition(t *testing.T) {
	x := elu64Inputs()
	n := len(x)
	if n < 2_000_000 {
		t.Fatalf("sweep has only %d values", n)
	}
	want := make([]float64, n)
	for i, v := range x {
		want[i] = Elu(v)
	}
	atEachTier(t, func(t *testing.T) {
		y := make([]float64, n)
		EluRange(y, x, 0, n)
		sameBits(t, "whole sweep", y, want, x, 0, n)

		alias := append([]float64(nil), x...)
		EluRange(alias, alias, 0, n)
		sameBits(t, "x aliasing y", alias, want, x, 0, n)

		// Lengths either side of every kernel step: masked tails of 1-3 and
		// 1-7, single vectors of 4 and 8, four-chain iterations of 16 and 32;
		// the last base starts where the special values do.
		const pad = 9
		buf := make([]float64, 40+2*pad)
		for _, base := range []int{0, 333, 2_000_000 - pad} {
			for m := 0; m <= 40; m++ {
				src, w := x[base:base+m+2*pad], want[base:]
				lo, hi := pad, pad+m
				for i := range buf {
					buf[i] = guard64
				}
				out := buf[:len(src)]
				EluRange(out, src, lo, hi)
				sameBits(t, fmt.Sprintf("length %d", m), out, w, src, lo, hi)
				checkGuards(t, fmt.Sprintf("length %d", m), out, lo, hi)

				inPlace := append([]float64(nil), src...)
				EluRange(inPlace, inPlace, lo, hi)
				sameBits(t, fmt.Sprintf("length %d in place", m), inPlace, w, src, lo, hi)
			}
		}

		// Every misalignment of both ends, over a stretch that holds every
		// kind of input.
		const span = 4096
		for lo := 0; lo <= 9; lo++ {
			for cut := 0; cut <= 9; cut++ {
				hi := span - cut
				out := y[:span]
				for i := range out {
					out[i] = guard64
				}
				EluRange(out, x, lo, hi)
				sameBits(t, "misaligned range", out, want, x, lo, hi)
				checkGuards(t, "misaligned range", out, lo, hi)
			}
		}
	})
}

// TestElu64Accuracy pins what Elu is, on every rung: within 1 ulp of
// math.Expm1 over (eluClamp, 0] — uniformly over the range, and densely
// near 0, where e^v − 1 computed as exp(v) − 1 would cancel — exactly −1
// at and below the clamp and for −Inf, +0 for ±0, a negative subnormal
// itself, and every NaN its own bits.
func TestElu64Accuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var x []float64
	for i := 0; i < 1_000_000; i++ {
		x = append(x,
			eluClamp*rng.Float64(),
			-rng.ExpFloat64(),
			-math.Pow(10, -300*rng.Float64()))
	}
	for k := 0; k <= 57; k++ { // the reduction's boundaries, (k ± ½)·ln2
		for _, v := range []float64{-(float64(k) + 0.5) * math.Ln2, -float64(k) * math.Ln2} {
			if v > eluClamp {
				x = append(x, math.Nextafter(v, 0), v, math.Nextafter(v, -1))
			}
		}
	}
	minusOne := []float64{eluClamp, math.Nextafter(eluClamp, -1000), -700, -745.2, -1e300,
		-math.MaxFloat64, math.Inf(-1)}
	selfs := []float64{-math.SmallestNonzeroFloat64, -1e-310, -math.Float64frombits(0x000fffffffffffff)}
	nans := []float64{math.NaN(),
		math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0x7ff4dead0000beef),
		math.Float64frombits(0xfff8000000000123), math.Float64frombits(0xfff0000000000001)}
	for i := 0; i < 100; i++ {
		nans = append(nans, math.Float64frombits(0x7ff0000000000000|rng.Uint64()>>12|rng.Uint64()<<63|1))
	}

	atEachTier(t, func(t *testing.T) {
		y := make([]float64, len(x))
		EluRange(y, x, 0, len(x))
		var worst int64
		exact, at := 0, 0.0
		for i, v := range x {
			d := ulps64(y[i], math.Expm1(v))
			if d == 0 {
				exact++
			}
			if d > worst {
				worst, at = d, v
			}
		}
		t.Logf("%d inputs in (%v, 0]: %.1f%% exact, max %d ulp (at %v) from math.Expm1",
			len(x), eluClamp, 100*float64(exact)/float64(len(x)), worst, at)
		if worst > 1 {
			t.Errorf("max error %d ulp against math.Expm1 at %v, want <= 1", worst, at)
		}

		check := func(what string, in []float64, want func(v float64) uint64) {
			t.Helper()
			// Padded to a whole zmm so the inputs also go through the
			// vector loop, not only the masked tail.
			for _, n := range []int{len(in), (len(in) + 7) &^ 7} {
				v := make([]float64, n)
				copy(v, in)
				got := make([]float64, n)
				EluRange(got, v, 0, n)
				for i, vi := range in {
					if w := want(vi); math.Float64bits(got[i]) != w {
						t.Errorf("%s: Elu(%v = %#x) = %#x, want %#x", what, vi, math.Float64bits(vi), math.Float64bits(got[i]), w)
					}
				}
			}
		}
		check("at or below the clamp", minusOne, func(float64) uint64 { return math.Float64bits(-1) })
		check("signed zero", []float64{0, math.Copysign(0, -1)}, func(float64) uint64 { return 0 })
		check("negative subnormal", selfs, math.Float64bits)
		check("NaN", nans, math.Float64bits)
	})
}

// TestEluGradMatchesScalar: the ELU′ kernel against the scalar loop, on
// the same terms, under the contract mismatch checks.
func TestEluGradMatchesScalar(t *testing.T) {
	const n = 400_000
	rng := rand.New(rand.NewSource(65))
	randomNaN := func() float64 { return math.Float64frombits(0x7ff8000000000000 | rng.Uint64()>>13 | rng.Uint64()<<63) }
	y, g := make([]float64, n), make([]float64, n)
	for i := range y {
		y[i] = Elu(2 * rng.NormFloat64()) // what the forward pass caches
		g[i] = rng.NormFloat64()
		switch rng.Intn(8) {
		case 0:
			y[i] = math.Float64frombits(rng.Uint64())
		case 1:
			y[i] = randomNaN()
		case 2:
			y[i] = []float64{0, math.Copysign(0, -1), -1, math.Inf(1), math.Inf(-1)}[rng.Intn(5)]
		}
		switch rng.Intn(8) {
		case 0:
			g[i] = math.Float64frombits(rng.Uint64())
		case 1: // meets a NaN in y one time in 64: the order-dependent case
			g[i] = randomNaN()
		}
	}
	want := make([]float64, n)
	eluGradScalar(want, g, y, 0, n)
	atEachTier(t, func(t *testing.T) {
		dx := make([]float64, n)
		EluGradRange(dx, g, y, 0, n)
		matchesDef(t, "whole sweep", dx, want, y, 0, n)

		alias := append([]float64(nil), g...)
		EluGradRange(alias, alias, y, 0, n)
		matchesDef(t, "dx aliasing g", alias, want, y, 0, n)

		const span = 4096
		for lo := 0; lo <= 9; lo++ {
			for cut := 0; cut <= 9; cut++ {
				hi := span - cut
				clear(dx[:span+1])
				EluGradRange(dx, g, y, lo, hi)
				matchesDef(t, "misaligned range", dx, want, y, lo, hi)
				for _, i := range []int{lo - 1, hi} {
					if i >= 0 && dx[i] != 0 {
						t.Fatalf("range [%d,%d) wrote element %d", lo, hi, i)
					}
				}
			}
		}
	})
}

// BenchmarkEluRange64 times EluRange per rung at the lengths the engine
// calls it with — a 64-row panel of SmallConfig (512) and of LargeConfig
// (2048), in cache — and once over 1 << 20 elements (16 MB in, 16 MB
// out), which measures memory bandwidth as much as the kernel. Half the
// inputs are negative, as in the engine's activations.
func BenchmarkEluRange64(b *testing.B) {
	for _, size := range []struct {
		name string
		n    int
	}{{"n=512", 512}, {"n=2048", 2048}, {"n=1M-memory-bound", 1 << 20}} {
		n := size.n
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = math.Sin(float64(i)) * 2
		}
		for k := tierAVX512; k >= tierGo; k-- {
			b.Run(size.name+"/"+k.String(), func(b *testing.B) {
				if k > cpuTier {
					b.Skipf("rung %v not run: this CPU's top rung is %v", k, cpuTier)
				}
				defer setKernelTier(setKernelTier(k))
				b.SetBytes(int64(n) * 8)
				for i := 0; i < b.N; i++ {
					EluRange(y, x, 0, n)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/elem")
			})
		}
	}
}
