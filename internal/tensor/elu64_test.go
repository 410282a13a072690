package tensor

import (
	"math"
	"math/rand"
	"os"
	"os/exec"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"
)

// elu64Inputs is the sweep the float64 ELU paths must agree on bit for
// bit: the distributions activations actually have, the whole range the
// kernel computes itself, everything around its stop rule, and raw bit
// patterns for whatever nobody thought of. Over two million values.
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
	edges := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0x7ff0000000000001), // signalling NaN
		math.Float64frombits(0xfff8000000000123), // negative NaN with a payload
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, -math.MaxFloat64, math.MaxFloat64}
	// The kernel's stop threshold, exp's last normal result and its
	// underflow to zero, each with its neighbours.
	for _, v := range []float64{-700, -708.3964185322641, -745.1332191019411} {
		edges = append(edges, math.Nextafter(v, 0), v, math.Nextafter(v, -1000))
	}
	// Every edge in every lane position among ordinary neighbours, and
	// edges side by side.
	for _, e := range edges {
		for lane := 0; lane < 8; lane++ {
			block := [8]float64{-0.5, 0.25, -1, -2, 3, -0.125, -30, 1}
			block[lane] = e
			x = append(x, block[:]...)
		}
	}
	return append(x, edges...)
}

func eluRef(v float64) float64 {
	if v > 0 {
		return v
	}
	return math.Exp(v) - 1
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

// TestElu64MatchesMathExp is the premise of the float64 ELU kernel, shown
// rather than assumed: whatever path an element takes — an 8- or 4-lane
// kernel block, a block the kernel declined, the scalar tail, or no
// kernel at all — its bits are those of the scalar definition.
func TestElu64MatchesMathExp(t *testing.T) {
	x := elu64Inputs()
	n := len(x)
	t.Logf("kernel engaged: %v (%d lanes; exact per rung: %v)", eluLanes() > 0, eluLanes(), elu64Exact)
	if n < 2_000_000 {
		t.Fatalf("sweep has only %d values", n)
	}
	want := make([]float64, n)
	for i, v := range x {
		want[i] = eluRef(v)
	}
	atEachTier(t, func(t *testing.T) {
		y := make([]float64, n)
		EluRange(y, x, 0, n)
		sameBits(t, "whole sweep", y, want, x, 0, n)

		alias := append([]float64(nil), x...)
		EluRange(alias, alias, 0, n)
		sameBits(t, "x aliasing y", alias, want, x, 0, n)

		// Lengths either side of the kernels' blocks: 4 and 8 lanes, and
		// the two-chain iterations of 8 and 16 elements.
		for _, m := range []int{1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 100} {
			clear(y[:m+4])
			EluRange(y, x, 3, 3+m)
			sameBits(t, "short range", y, want, x, 3, 3+m)
		}

		// Every misalignment of both ends, over a stretch that holds
		// slow blocks (the -750·U values) as well as fast ones.
		const span = 4096
		for lo := 0; lo <= 9; lo++ {
			for cut := 0; cut <= 9; cut++ {
				hi := span - cut
				clear(y[:span+1])
				EluRange(y, x, lo, hi)
				sameBits(t, "misaligned range", y, want, x, lo, hi)
				for _, i := range []int{lo - 1, hi} {
					if i >= 0 && y[i] != 0 {
						t.Fatalf("range [%d,%d) wrote element %d", lo, hi, i)
					}
				}
			}
		}
	})
}

// TestElu64SelfDisablesWithoutMathFMA: GODEBUG=cpu.fma=off moves math.Exp
// to its non-FMA sequence, which rounds differently, while detectSIMD
// still reports the CPUID truth. The init-time probe must notice and
// leave the kernel off, so the sweep above passes in such a process.
// Built with GOAMD64=v3 or above, FMA is the baseline: math.Exp has only
// its FMA sequence, the runtime knows no "fma" feature to turn off, and
// there is nothing to disable.
func TestElu64SelfDisablesWithoutMathFMA(t *testing.T) {
	if !elu64Exact[cpuTier] {
		t.Skipf("no float64 ELU kernel on this machine's top rung (%v): nothing to disable", cpuTier)
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key != "GOAMD64" {
				continue
			}
			if level, err := strconv.Atoi(strings.TrimPrefix(s.Value, "v")); err == nil && level >= 3 {
				t.Skipf("built with GOAMD64=%s: FMA is the baseline, math.Exp has one arithmetic and cpu.fma cannot be turned off", s.Value)
			}
		}
	}
	godebug := "cpu.fma=off"
	if prev := os.Getenv("GODEBUG"); prev != "" {
		godebug = prev + "," + godebug
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestElu64MatchesMathExp$", "-test.v")
	cmd.Env = append(os.Environ(), "GODEBUG="+godebug)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("sweep under GODEBUG=%s: %v\n%s", godebug, err, out)
	}
	if !strings.Contains(string(out), "kernel engaged: false") {
		t.Fatalf("kernel stayed on under GODEBUG=%s although math.Exp changed its arithmetic:\n%s", godebug, out)
	}
}

// TestEluGradMatchesScalar: the ELU′ kernel against the scalar loop, on
// the same terms.
func TestEluGradMatchesScalar(t *testing.T) {
	const n = 400_000
	rng := rand.New(rand.NewSource(65))
	randomNaN := func() float64 { return math.Float64frombits(0x7ff8000000000000 | rng.Uint64()>>13 | rng.Uint64()<<63) }
	y, g := make([]float64, n), make([]float64, n)
	for i := range y {
		y[i] = eluRef(2 * rng.NormFloat64()) // what the forward pass caches
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
		sameBits(t, "whole sweep", dx, want, y, 0, n)

		alias := append([]float64(nil), g...)
		EluGradRange(alias, alias, y, 0, n)
		sameBits(t, "dx aliasing g", alias, want, y, 0, n)

		const span = 4096
		for lo := 0; lo <= 9; lo++ {
			for cut := 0; cut <= 9; cut++ {
				hi := span - cut
				clear(dx[:span+1])
				EluGradRange(dx, g, y, lo, hi)
				sameBits(t, "misaligned range", dx, want, y, lo, hi)
				for _, i := range []int{lo - 1, hi} {
					if i >= 0 && dx[i] != 0 {
						t.Fatalf("range [%d,%d) wrote element %d", lo, hi, i)
					}
				}
			}
		}
	})
}

func BenchmarkEluRange64(b *testing.B) {
	const n = 1 << 20
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(float64(i)) * 2
	}
	for k := tierAVX512; k >= tierGo; k-- {
		b.Run(k.String(), func(b *testing.B) {
			if k > tierGo && !elu64Exact[k] {
				b.Skipf("rung %v: no exact kernel on this machine (top rung %v)", k, cpuTier)
			}
			defer setKernelTier(setKernelTier(k))
			b.SetBytes(n * 8)
			for i := 0; i < b.N; i++ {
				EluRange(y, x, 0, n)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/elem")
		})
	}
}
