package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// atEachTier runs body once per rung of the kernel tier, top rung first,
// as a subtest named after the rung with the tier lowered to it. A rung
// the CPU lacks is skipped by name, never passed silently.
func atEachTier(t *testing.T, body func(t *testing.T)) {
	for k := tierAVX512; k >= tierGo; k-- {
		t.Run(k.String(), func(t *testing.T) {
			if k > cpuTier {
				t.Skipf("rung %v not run: this CPU's top rung is %v", k, cpuTier)
			}
			defer setKernelTier(setKernelTier(k))
			body(t)
		})
	}
}

// simdTier is the rung for "assembly kernels on" (the CPU's top rung) or
// off, for the float32 tests, whose kernels are the same on both SIMD
// rungs.
func simdTier(on bool) kernelTier {
	if on {
		return cpuTier
	}
	return tierGo
}

// TestKernelTier reports the rung this machine runs (-v) and pins the
// hook's contract: it lowers, it never raises past the CPU, and the panel
// width is 8 on both SIMD rungs.
func TestKernelTier(t *testing.T) {
	t.Logf("kernel tier: %v (CPU supports %v); float64 ELU kernel exact per rung: %v", tier, cpuTier, elu64Exact)
	if tier != cpuTier {
		t.Fatalf("tier %v at rest, CPU supports %v", tier, cpuTier)
	}
	for k := tierGo; k <= tierAVX512; k++ {
		prev := setKernelTier(k)
		if want := min(k, cpuTier); tier != want {
			t.Errorf("setKernelTier(%v) on a %v CPU left tier %v, want %v", k, cpuTier, tier, want)
		}
		want := 4
		if tier >= tierAVX2 {
			want = 8
		}
		if PackWidth() != want {
			t.Errorf("tier %v: panel width %d, want %d", tier, PackWidth(), want)
		}
		setKernelTier(prev)
	}
	if tier != cpuTier {
		t.Fatalf("tier %v after restoring, want %v", tier, cpuTier)
	}
}

// TestLoweredToAVX2 re-runs, with the tier lowered to avx2, the tests of
// this package that run on whatever rung is current: on an AVX-512 machine
// every one of them otherwise meets the AVX2 tiles only at heads, tails
// and odd panels. (The sweeps that walk the rungs themselves need no
// second run.)
func TestLoweredToAVX2(t *testing.T) {
	if cpuTier < tierAVX512 {
		t.Skipf("this CPU's top rung is %v: every other test already runs there", cpuTier)
	}
	defer setKernelTier(setKernelTier(tierAVX2))
	for _, tc := range []struct {
		name string
		f    func(*testing.T)
	}{
		{"PackedMatMulMatchesNaive", TestPackedMatMulMatchesNaive},
		{"PackedMatMulBitwiseAcrossThreads", TestPackedMatMulBitwiseAcrossThreads},
		{"PackedRowPartitionInvariance", TestPackedRowPartitionInvariance},
		{"PackedMatMulABTMatchesNaive", TestPackedMatMulABTMatchesNaive},
		{"PackedMatMulATBMatchesNaive", TestPackedMatMulATBMatchesNaive},
		{"PackBWithArenaReplays", TestPackBWithArenaReplays},
		{"PackedZeroAllocSteadyState", TestPackedZeroAllocSteadyState},
		{"RowBodiesIgnoreRangeBoundaries", TestRowBodiesIgnoreRangeBoundaries},
		{"RepackTransposed", TestRepackTransposed},
	} {
		t.Run(tc.name, tc.f)
	}
}

// sweepValue draws an ordinary value, or (one time in nanEvery, when
// nanEvery > 0) a quiet NaN with a random payload.
func sweepValue(rng *rand.Rand, nanEvery int) float64 {
	if nanEvery > 0 && rng.Intn(nanEvery) == 0 {
		return math.Float64frombits(0x7ff8000000000000 | rng.Uint64()>>13)
	}
	return rng.NormFloat64()
}

func sweepMatrix(rng *rand.Rand, rows, cols, nanEvery int) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = sweepValue(rng, nanEvery)
	}
	return m
}

func bitsEqual(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// gemmOperands are the inputs of every product the tiles serve for one
// shape. run computes them on the current rung over the row ranges given
// (the bodies are row-range kernels): MatMul through pre-packed panels, the
// same with the bias epilogue, MatMulABT through PackBT, MatMulATBAcc over
// the rows as one reduction chunk — and the epilogue's definition, the
// plain product followed by AddRowVectorRows.
type gemmOperands struct {
	x, w, wT, dy *Matrix // x rows×k, w k×n, wT n×k (for x·wTᵀ), dy rows×n
	bias         []float64
}

func (o *gemmOperands) run(ranges [][2]int) map[string][]float64 {
	rows, k, n := o.x.Rows, o.x.Cols, o.w.Cols
	out := map[string][]float64{}
	mm, mb, abt := New(rows, n), New(rows, n), New(rows, n)
	pb, pbt := PackB(o.w), PackBT(o.wT)
	for _, r := range ranges {
		MatMulPackedRows(mm, o.x, pb, r[0], r[1])
		MatMulPackedBiasRows(mb, o.x, pb, o.bias, r[0], r[1])
		MatMulPackedRows(abt, o.x, pbt, r[0], r[1])
	}
	out["MatMul"], out["MatMulBias"], out["MatMulABT"] = mm.Data, mb.Data, abt.Data
	acc := make([]float64, k*n)
	MatMulATBAcc(acc, o.x, o.dy, 0, rows)
	out["MatMulATBAcc"] = acc
	ref := mm.Clone()
	for _, r := range ranges {
		AddRowVectorRows(ref, o.bias, r[0], r[1])
	}
	out["MatMul+AddRowVectorRows"] = ref.Data
	return out
}

// TestKernelRungsBitwise is the premise of the AVX-512 rung, shown rather
// than assumed: for every GEMM form the tile serves, avx512 == avx2 bit
// for bit, on every row count 1…70 (tile heads and tails), on 64-row
// panels at odd offsets, on even and odd panel counts and a scalar column
// tail, on K from 1 to 96 and with packKc shrunk so that K spans several
// accumulate passes; and on every rung the bias epilogue equals the plain
// product followed by AddRowVectorRows, NaNs in the sums and in the bias
// included. (The pure-Go rung rounds differently — no FMA — so it is held
// to its own definition here and to the legacy kernels, bitwise, by
// TestPackedPureGoBitwiseLegacy.)
func TestKernelRungsBitwise(t *testing.T) {
	if cpuTier < tierAVX2 {
		t.Skipf("rungs avx2 and avx512 not run: this CPU's top rung is %v", cpuTier)
	}
	rng := rand.New(rand.NewSource(512))
	type result = map[string][]float64
	check := func(t *testing.T, what string, o *gemmOperands, ranges [][2]int) {
		t.Helper()
		byTier := map[kernelTier]result{}
		for k := tierGo; k <= cpuTier; k++ {
			prev := setKernelTier(k)
			byTier[k] = o.run(ranges)
			setKernelTier(prev)
			r := byTier[k]
			if i := bitsEqual(r["MatMulBias"], r["MatMul+AddRowVectorRows"]); i >= 0 {
				t.Fatalf("%s, rung %v: bias epilogue differs from MatMul then AddRowVectorRows at element %d: %#x vs %#x",
					what, k, i, math.Float64bits(r["MatMulBias"][i]), math.Float64bits(r["MatMul+AddRowVectorRows"][i]))
			}
		}
		if cpuTier < tierAVX512 {
			return
		}
		for form, want := range byTier[tierAVX2] {
			if i := bitsEqual(byTier[tierAVX512][form], want); i >= 0 {
				t.Fatalf("%s: %s differs between avx512 and avx2 at element %d: %#x vs %#x",
					what, form, i, math.Float64bits(byTier[tierAVX512][form][i]), math.Float64bits(want[i]))
			}
		}
	}
	operands := func(rows, k, n, nanEvery int, nanBias bool) *gemmOperands {
		o := &gemmOperands{
			x:  sweepMatrix(rng, rows, k, nanEvery),
			w:  sweepMatrix(rng, k, n, 0),
			wT: sweepMatrix(rng, n, k, 0),
			dy: sweepMatrix(rng, rows, n, nanEvery),
		}
		biasNaNEvery := 0
		if nanBias {
			biasNaNEvery = 5
		}
		o.bias = make([]float64, n)
		for j := range o.bias {
			o.bias[j] = sweepValue(rng, biasNaNEvery)
		}
		return o
	}
	widths := []int{8, 16, 24, 32, 40, 37}
	depths := []int{1, 3, 32, 96}

	t.Run("rows1to70", func(t *testing.T) {
		for rows := 1; rows <= 70; rows++ {
			n, k := widths[rows%len(widths)], depths[rows%len(depths)]
			check(t, fmt.Sprintf("%dx%d·%d", rows, k, n), operands(rows, k, n, 0, false), [][2]int{{0, rows}})
		}
	})
	t.Run("shapes", func(t *testing.T) {
		for _, n := range widths {
			for _, k := range depths {
				check(t, fmt.Sprintf("67x%d·%d", k, n), operands(67, k, n, 0, false), [][2]int{{0, 67}})
			}
		}
	})
	t.Run("panelsAtOddOffsets", func(t *testing.T) {
		// 64-row panels starting at rows 1, 3 and 7 of a taller matrix, and
		// the ragged remainder: every alignment of a panel against the
		// 8-row tile grid.
		for _, off := range []int{1, 3, 7} {
			rows := off + 2*64 + 5
			ranges := [][2]int{{0, off}, {off, off + 64}, {off + 64, off + 128}, {off + 128, rows}}
			for _, n := range []int{32, 24, 37} {
				check(t, fmt.Sprintf("offset %d, width %d", off, n), operands(rows, 32, n, 0, false), ranges)
			}
		}
	})
	t.Run("accumulatePath", func(t *testing.T) {
		prevKc := packKc
		packKc = 16
		defer func() { packKc = prevKc }()
		for _, n := range widths {
			for _, k := range []int{3, 32, 96, 37} {
				check(t, fmt.Sprintf("Kc=16 21x%d·%d", k, n), operands(21, k, n, 0, false), [][2]int{{0, 9}, {9, 21}})
			}
		}
	})
	t.Run("NaNs", func(t *testing.T) {
		for _, n := range widths {
			check(t, fmt.Sprintf("NaN in the sums, width %d", n), operands(19, 32, n, 40, false), [][2]int{{0, 19}})
			check(t, fmt.Sprintf("NaN in the bias, width %d", n), operands(19, 32, n, 0, true), [][2]int{{0, 19}})
			check(t, fmt.Sprintf("NaN in both, width %d", n), operands(19, 32, n, 40, true), [][2]int{{0, 19}})
		}
	})
}

// TestAddRowVector32RowsMatchesScalar: the float32 bias add's 8-lane body,
// its column tail and the blocks it hands back are the scalar loop's bits,
// kernel on or off.
func TestAddRowVector32RowsMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	const rows = 9
	value := func() float32 {
		if rng.Intn(12) == 0 {
			return math.Float32frombits(0x7fc00000 | rng.Uint32()>>10)
		}
		return float32(rng.NormFloat64())
	}
	for _, cols := range []int{1, 7, 8, 9, 16, 32, 33, 96} {
		src, bias := New32(rows, cols), make([]float32, cols)
		for i := range src.Data {
			src.Data[i] = value()
		}
		for j := range bias {
			bias[j] = value()
		}
		want := New32(rows, cols)
		copy(want.Data, src.Data)
		for i := 0; i < rows; i++ {
			addScalar32(want.Row(i), bias, 0, cols)
		}
		for _, simd := range []bool{true, false} {
			if simd && cpuTier < tierAVX2 {
				t.Logf("cols=%d: SIMD body not run: this CPU's top rung is %v", cols, cpuTier)
				continue
			}
			prev := setKernelTier(simdTier(simd))
			got := New32(rows, cols)
			copy(got.Data, src.Data)
			AddRowVector32Rows(got, bias, 0, 4)
			AddRowVector32Rows(got, bias, 4, rows)
			setKernelTier(prev)
			for i := range want.Data {
				if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
					t.Fatalf("cols=%d simd=%v: element %d is %#x, want %#x", cols, simd, i,
						math.Float32bits(got.Data[i]), math.Float32bits(want.Data[i]))
				}
			}
		}
	}
}
