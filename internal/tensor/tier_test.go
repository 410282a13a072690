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

// TestKernelTier reports the rung this machine runs (-v) and pins the
// hook's contract: it lowers, and it never raises past the CPU.
func TestKernelTier(t *testing.T) {
	t.Logf("kernel tier: %v (CPU supports %v)", tier, cpuTier)
	if tier != cpuTier {
		t.Fatalf("tier %v at rest, CPU supports %v", tier, cpuTier)
	}
	for k := tierGo; k <= tierAVX512; k++ {
		prev := setKernelTier(k)
		if want := min(k, cpuTier); tier != want {
			t.Errorf("setKernelTier(%v) on a %v CPU left tier %v, want %v", k, cpuTier, tier, want)
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
// and lone or partial panels — float64 and float32 alike. (The sweeps that walk the
// rungs themselves need no second run.)
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
		{"PackedZeroAllocSteadyState", TestPackedZeroAllocSteadyState},
		{"RowBodiesIgnoreRangeBoundaries", TestRowBodiesIgnoreRangeBoundaries},
		{"MatMul32MatchesF64Oracle", TestMatMul32MatchesF64Oracle},
		{"MatMul32PackedMatchesScalar", TestMatMul32PackedMatchesScalar},
		{"MatMul32BitwiseAcrossThreads", TestMatMul32BitwiseAcrossThreads},
	} {
		t.Run(tc.name, tc.f)
	}
}

// sweepValue draws an ordinary value, or (one time in nanEvery, when
// nanEvery > 0) a quiet NaN with a random payload.
func sweepValue[T float](rng *rand.Rand, nanEvery int) T {
	if nanEvery > 0 && rng.Intn(nanEvery) == 0 {
		// A conversion to the value's own type keeps the payload.
		var e T
		if _, single := any(e).(float32); single {
			return T(math.Float32frombits(0x7fc00000 | rng.Uint32()>>10))
		}
		return T(math.Float64frombits(0x7ff8000000000000 | rng.Uint64()>>13))
	}
	return T(rng.NormFloat64())
}

func sweepSlice[T float](rng *rand.Rand, n, nanEvery int) []T {
	v := make([]T, n)
	for i := range v {
		v[i] = sweepValue[T](rng, nanEvery)
	}
	return v
}

// bitsOf is v's bit pattern, whichever float it is.
func bitsOf[T float](v T) uint64 {
	if v, single := any(v).(float32); single {
		return uint64(math.Float32bits(v))
	}
	return math.Float64bits(float64(v))
}

// bitsEqual returns the first index where a and b differ in a bit, -1 for
// none: for memory a call must leave as it was.
func bitsEqual[T float](a, b []T) int {
	for i := range a {
		if bitsOf(a[i]) != bitsOf(b[i]) {
			return i
		}
	}
	return -1
}

// mismatch returns the first index where got breaks the package's bitwise
// contract with def (pack.go) — different bits where def is not NaN, not a
// NaN where it is — and -1 for none. Which NaN is not compared. Every
// kernel sweep holds a kernel to its definition, and one rung to another,
// with it.
func mismatch[T float](got, def []T) int {
	for i, d := range def {
		if g := got[i]; d != d && g == g || d == d && bitsOf(g) != bitsOf(d) {
			return i
		}
	}
	return -1
}

// definition computes rows [lo, hi) of c = a·b + bias (acc == 0; bias nil
// for none) or c += a·b (acc == 1) with the float64 product's one
// definition, fmaRows — the go rung's kernel and every test's oracle —
// over the grid the arguments describe, whatever the rung.
func definition(c []float64, ldc int, a []float64, lda, astride int, b []float64, bstride, k, n int, bias []float64, acc int64, lo, hi int) {
	g := tileGrid[float64]{
		kc: int64(k), acc: acc,
		a: a, lda: lda, astride: astride,
		b: b, panelStride: packNR, bstride: bstride,
		c: c, ldc: ldc, n: n, bias: bias,
	}
	fmaRows(&g, lo, hi, 0, (n+packNR-1)/packNR)
}

// gemmOperands are the inputs of every product the tiles serve for one
// shape in one element type. run computes, on the current rung and over
// the row ranges given (the bodies are row-range kernels), each form by
// name; among them "bias" — the product with the bias epilogue — and
// "definition" — the plain product followed by the row-vector add, which
// the epilogue must equal bit for bit.
type gemmOperands[T float] struct {
	rows, k, n int
	x, w       []T // x rows×k, w k×n
	wT, dy     []T // wT n×k (for x·wTᵀ), dy rows×n: the float64 forms only
	bias       []T
}

func newGemmOperands[T float](rng *rand.Rand, rows, k, n, nanEvery int, nanBias bool) *gemmOperands[T] {
	biasNaNEvery := 0
	if nanBias {
		biasNaNEvery = 5
	}
	return &gemmOperands[T]{
		rows: rows, k: k, n: n,
		x:    sweepSlice[T](rng, rows*k, nanEvery),
		w:    sweepSlice[T](rng, k*n, 0),
		wT:   sweepSlice[T](rng, n*k, 0),
		dy:   sweepSlice[T](rng, rows*n, nanEvery),
		bias: sweepSlice[T](rng, n, biasNaNEvery),
	}
}

// run64: the product by row ranges (MatMulBiasRows without a bias), the
// same with the bias epilogue, the product on a transpose (dy·Wᵀ the way
// internal/nn computes it) and MatMulATBAcc over the rows as one reduction
// chunk.
func run64(o *gemmOperands[float64], ranges [][2]int) map[string][]float64 {
	rows, k, n := o.rows, o.k, o.n
	x, w, wT, dy := FromSlice(rows, k, o.x), FromSlice(k, n, o.w), FromSlice(n, k, o.wT), FromSlice(rows, n, o.dy)
	mm, mb, linT := New(rows, n), New(rows, n), New(rows, n)
	w2 := transposed(wT)
	for _, r := range ranges {
		MatMulBiasRows(mm, x, w, nil, r[0], r[1])
		MatMulBiasRows(mb, x, w, o.bias, r[0], r[1])
		MatMulBiasRows(linT, x, w2, nil, r[0], r[1])
	}
	acc := make([]float64, k*n)
	MatMulATBAcc(acc, x, dy, 0, rows)
	def := mm.Clone()
	for _, r := range ranges {
		AddRowVectorRows(def, o.bias, r[0], r[1])
	}
	return map[string][]float64{"MatMul": mm.Data, "bias": mb.Data, "MatMulATBAcc": acc, "definition": def.Data,
		"MatMulBiasRowsT": linT.Data}
}

// gemmPairs pairs each form with the one it must equal bit for bit on every
// rung: the bias epilogue with the product then the row-vector add.
var gemmPairs = [][2]string{{"bias", "definition"}}

// run32: MatMul32 (whole matrix), MatMul32BiasRows by row ranges without
// and with the bias epilogue — paired with its "definition", the product
// then the row-vector add.
func run32(o *gemmOperands[float32], ranges [][2]int) map[string][]float32 {
	rows, k, n := o.rows, o.k, o.n
	x, w := &Matrix32{Rows: rows, Cols: k, Data: o.x}, &Matrix32{Rows: k, Cols: n, Data: o.w}
	whole, mm, mb := New32(rows, n), New32(rows, n), New32(rows, n)
	MatMul32(whole, x, w)
	for _, r := range ranges {
		MatMul32BiasRows(mm, x, w, nil, r[0], r[1])
		MatMul32BiasRows(mb, x, w, o.bias, r[0], r[1])
	}
	def := New32(rows, n)
	copy(def.Data, mm.Data)
	for _, r := range ranges {
		AddRowVector32Rows(def, o.bias, r[0], r[1])
	}
	return map[string][]float32{"MatMul32": whole.Data, "MatMul32BiasRows": mm.Data, "bias": mb.Data, "definition": def.Data}
}

// sweepRungs shows, rather than assumes, that the rungs from lowest up
// compute one arithmetic for one element type: for every GEMM form run
// computes, each rung == lowest bit for bit, on every row count 1…70
// (tile heads and tails), on 64-row panels at odd offsets, on even and
// odd panel counts and a partial last panel, on K from 1 to 96; and on
// every rung the pairs of gemmPairs agree, NaNs in the sums and in the
// bias included — all under the contract mismatch checks.
func sweepRungs[T float](t *testing.T, lowest kernelTier, widths []int, run func(*gemmOperands[T], [][2]int) map[string][]T) {
	rng := rand.New(rand.NewSource(512))
	check := func(t *testing.T, what string, o *gemmOperands[T], ranges [][2]int) {
		t.Helper()
		byTier := map[kernelTier]map[string][]T{}
		for k := lowest; k <= cpuTier; k++ {
			prev := setKernelTier(k)
			r := run(o, ranges)
			setKernelTier(prev)
			byTier[k] = r
			for _, pair := range gemmPairs {
				got, ok := r[pair[0]]
				if !ok {
					continue
				}
				if i := mismatch(got, r[pair[1]]); i >= 0 {
					t.Fatalf("%s, rung %v: %s differs from %s at element %d: %#x vs %#x",
						what, k, pair[0], pair[1], i, bitsOf(got[i]), bitsOf(r[pair[1]][i]))
				}
			}
		}
		for k := lowest + 1; k <= cpuTier; k++ {
			for form, want := range byTier[lowest] {
				if i := mismatch(byTier[k][form], want); i >= 0 {
					t.Fatalf("%s: %s differs between %v and %v at element %d: %#x vs %#x",
						what, form, k, lowest, i, bitsOf(byTier[k][form][i]), bitsOf(want[i]))
				}
			}
		}
	}
	operands := func(rows, k, n, nanEvery int, nanBias bool) *gemmOperands[T] {
		return newGemmOperands[T](rng, rows, k, n, nanEvery, nanBias)
	}
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
			for _, n := range widths[len(widths)-3:] {
				check(t, fmt.Sprintf("offset %d, width %d", off, n), operands(rows, 32, n, 0, false), ranges)
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

// TestKernelRungsBitwise runs sweepRungs for both element types: float64
// go == avx2 == avx512, float32 avx2 == avx512 (the go rung's float32 loop
// is not fused: TestMatMul32PackedMatchesScalar holds it to a tolerance),
// the float32 widths with lone, whole and partial last panels.
func TestKernelRungsBitwise(t *testing.T) {
	if cpuTier < tierAVX2 {
		t.Skipf("rungs avx2 and avx512 not run: this CPU's top rung is %v", cpuTier)
	}
	t.Run("float64", func(t *testing.T) { sweepRungs(t, tierGo, []int{3, 8, 16, 24, 32, 40, 37}, run64) })
	t.Run("float32", func(t *testing.T) { sweepRungs(t, tierAVX2, []int{1, 3, 8, 13, 16, 32, 48, 64, 17, 37}, run32) })
}

// TestMatMulBiasRowsBitwise holds the linear layer to the
// float64 product's definition under the contract mismatch checks on every
// rung, the pure-Go one included: over every row count 0…70 and 64-row
// panels at odd offsets, widths either side of the tiles' 4-lane halves
// and 8-column panels, depths either side of 4 and 8, with and without a
// bias; on plain data and on data planted with what the kernels'
// arithmetic must not get wrong — groups of four zero a values, signed
// zeros, ±Inf in a and b (so 0·Inf, a NaN, meets the sums), and NaNs with
// random payloads in a, in b and in the bias, alone and together.
func TestMatMulBiasRowsBitwise(t *testing.T) {
	widths := []int{1, 3, 4, 5, 8, 13, 16, 32}
	depths := []int{1, 3, 4, 7, 8, 16, 24}
	plants := []string{"plain", "zeros", "Inf", "NaN in a", "NaN in b", "NaN in bias", "everything"}
	negZero := math.Copysign(0, -1)
	type linCase struct {
		what    string
		a, b    *Matrix
		bias    []float64
		rows    int
		ranges  [][2]int
		wantOut *Matrix
	}
	rng := rand.New(rand.NewSource(1024))
	newCase := func(rows, k, n int, plant string, withBias bool, ranges [][2]int) linCase {
		value := func(inf, nan bool) float64 {
			switch r := rng.Intn(64); {
			case r < 4 && plant != "plain":
				return []float64{0, negZero}[r&1]
			case r == 4 && inf:
				return math.Inf(1 - 2*rng.Intn(2))
			case r == 5 && nan:
				return sweepValue[float64](rng, 1)
			}
			return rng.NormFloat64()
		}
		everything := plant == "everything"
		infs := plant == "Inf" || everything
		a, b := New(rows, k), New(k, n)
		for i := range a.Data {
			a.Data[i] = value(infs, plant == "NaN in a" || everything)
		}
		for i := range b.Data {
			b.Data[i] = value(infs, false)
		}
		if plant != "plain" {
			// Aligned groups of four zeros of either sign in a third of the
			// rows, and a few single zeros in the k tail.
			for i := 0; i < rows; i++ {
				row := a.Row(i)
				for g := 0; g+4 <= k; g += 4 {
					if rng.Intn(3) == 0 {
						for j := g; j < g+4; j++ {
							row[j] = []float64{0, negZero}[rng.Intn(2)]
						}
					}
				}
			}
		}
		if plant == "NaN in b" || everything {
			// One NaN in b: every row meets it unless its group is zero.
			b.Data[rng.Intn(len(b.Data))] = sweepValue[float64](rng, 1)
		}
		var bias []float64
		if withBias {
			bias = make([]float64, n)
			for j := range bias {
				bias[j] = value(infs, false)
			}
			if plant == "NaN in bias" || everything {
				bias[rng.Intn(n)] = sweepValue[float64](rng, 1)
			}
		}
		want := New(rows, n)
		definition(want.Data, n, a.Data, k, 1, b.Data, n, k, n, bias, 0, 0, rows)
		return linCase{
			what: fmt.Sprintf("%dx%d·%d %s, bias %v, ranges %v", rows, k, n, plant, withBias, ranges),
			a:    a, b: b, bias: bias, rows: rows, ranges: ranges, wantOut: want,
		}
	}

	var cases []linCase
	for rows := 0; rows <= 70; rows++ {
		n, k := widths[rows%len(widths)], depths[rows%len(depths)]
		cases = append(cases, newCase(rows, k, n, plants[rows%len(plants)], rows%2 == 0, [][2]int{{0, rows}}))
	}
	for _, n := range widths {
		for _, k := range depths {
			for p, plant := range plants {
				cases = append(cases, newCase(67, k, n, plant, (n+k+p)%3 != 0, [][2]int{{0, 67}}))
			}
		}
	}
	for _, off := range []int{1, 3, 7} {
		rows := off + 2*64 + 5
		ranges := [][2]int{{0, off}, {off, off + 64}, {off + 64, off + 128}, {off + 128, rows}}
		for _, n := range []int{5, 8, 13, 32} {
			cases = append(cases, newCase(rows, 24, n, plants[(off+n)%len(plants)], true, ranges))
		}
	}

	atEachTier(t, func(t *testing.T) {
		for _, c := range cases {
			got := New(c.rows, c.b.Cols)
			for i := range got.Data {
				got.Data[i] = math.NaN() // every element must be written
			}
			for _, r := range c.ranges {
				MatMulBiasRows(got, c.a, c.b, c.bias, r[0], r[1])
			}
			if i := mismatch(got.Data, c.wantOut.Data); i >= 0 {
				t.Fatalf("%s: element %d (row %d) is %#x, want %#x", c.what, i, i/c.b.Cols,
					math.Float64bits(got.Data[i]), math.Float64bits(c.wantOut.Data[i]))
			}
		}
	})
}

// BenchmarkMatMulBiasRows times the linear layer per rung on a
// 64-row panel of SmallConfig's widest GEMM (24 → 8) and of its 8 → 8 ones.
func BenchmarkMatMulBiasRows(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	for _, k := range []int{24, 8} {
		x, w := randomMatrix(rng, 64, k), randomMatrix(rng, k, 8)
		bias, y := randomMatrix(rng, 1, 8).Data, New(64, 8)
		for r := tierAVX512; r >= tierGo; r-- {
			b.Run(fmt.Sprintf("%dx%d·8/%v", 64, k, r), func(b *testing.B) {
				if r > cpuTier {
					b.Skipf("rung %v not run: this CPU's top rung is %v", r, cpuTier)
				}
				defer setKernelTier(setKernelTier(r))
				for i := 0; i < b.N; i++ {
					MatMulBiasRows(y, x, w, bias, 0, 64)
				}
			})
		}
	}
}

// TestAddRowVector32RowsMatchesScalar: the float32 add kernels' 8- and
// 16-lane bodies and their tails are the scalar loop's bits and NaNs on
// every rung — behind the bias add (AddRowVector32Rows, by row ranges) and
// behind the residual add (AddTo, whole and by odd element ranges, as a
// row panel would cut it). One value in twelve is a NaN with a random
// payload, so NaN meets NaN in both operand orders.
func TestAddRowVector32RowsMatchesScalar(t *testing.T) {
	const rows = 40 // added in two calls, cut at row 4
	atEachTier(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(32))
		for _, cols := range []int{1, 7, 8, 9, 16, 32, 33, 96} {
			src := &Matrix32{Rows: rows, Cols: cols, Data: sweepSlice[float32](rng, rows*cols, 12)}
			bias := sweepSlice[float32](rng, cols, 12)
			other := &Matrix32{Rows: rows, Cols: cols, Data: sweepSlice[float32](rng, rows*cols, 12)}
			wantBias, wantSum := New32(rows, cols), New32(rows, cols)
			copy(wantBias.Data, src.Data)
			copy(wantSum.Data, src.Data)
			for i := 0; i < rows; i++ {
				addScalar32(wantBias.Row(i), bias, 0, cols)
			}
			addScalar32(wantSum.Data, other.Data, 0, rows*cols)
			{
				same := func(what string, got, want *Matrix32) {
					t.Helper()
					if i := mismatch(got.Data, want.Data); i >= 0 {
						t.Fatalf("cols=%d %s: element %d is %#x, want %#x", cols, what, i, bitsOf(got.Data[i]), bitsOf(want.Data[i]))
					}
				}
				got := New32(rows, cols)
				copy(got.Data, src.Data)
				AddRowVector32Rows(got, bias, 0, 4)
				AddRowVector32Rows(got, bias, 4, rows)
				same("AddRowVector32Rows", got, wantBias)

				copy(got.Data, src.Data)
				AddTo(got.Data, other.Data)
				same("AddTo", got, wantSum)

				copy(got.Data, src.Data)
				for _, cut := range [][2]int{{0, 1}, {1, 3}, {3, 20}, {20, 37}, {37, rows * cols}} {
					lo, hi := min(cut[0], rows*cols), min(cut[1], rows*cols)
					AddTo(got.Data[lo:hi], other.Data[lo:hi])
				}
				same("AddTo by odd ranges", got, wantSum)
			}
		}
	})
}

// lnOneRow is LayerNorm32Rows' definition written out again, sharing no
// code with layernorm32.go.
func lnOneRow(out, row, gain, shift []float32, eps float64) {
	var sum float64
	for j := 0; j < len(row); j++ {
		sum = sum + float64(row[j])
	}
	mean := sum / float64(len(row))
	var sq float64
	for j := 0; j < len(row); j++ {
		dev := float64(row[j]) - mean
		prod := dev * dev
		sq = sq + prod
	}
	scale := 1 / math.Sqrt(sq/float64(len(row))+eps)
	for j := 0; j < len(row); j++ {
		hat := float32((float64(row[j]) - mean) * scale)
		prod := hat * gain[j]
		out[j] = prod + shift[j]
	}
}

// TestLayerNorm32RowsMatchesOneRow holds LayerNorm32Rows to the one-row
// scalar loop under the contract mismatch checks, on every rung: rows 1…19
// (zero to two groups of eight and every remainder) × widths either side
// of the kernel's 8-column blocks, from row offsets that are not multiples
// of 8,
// in place and out of place, on ordinary data, on rows whose sum is all
// cancellation (so the order of the adds shows in the float32 output) and
// on rows of ±0, huge and tiny magnitudes — and with a NaN, an infinity or
// both planted in ONE row of a group, whose other rows must come out as if
// it were not there, or NaNs in gain and shift.
func TestLayerNorm32RowsMatchesOneRow(t *testing.T) {
	const eps = 1e-5
	negZero := float32(math.Copysign(0, -1))
	atEachTier(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(19))
		for _, cols := range []int{1, 8, 16, 32, 33, 96} {
			for rows := 1; rows <= 19; rows++ {
				for _, plant := range []string{"", "cancel", "zeros", "huge", "tiny", "NaN", "Inf", "NaN+Inf", "NaN gain+shift"} {
					const lo = 3
					total := lo + rows + 2
					src := &Matrix32{Rows: total, Cols: cols, Data: sweepSlice[float32](rng, total*cols, 0)}
					gain, shift := sweepSlice[float32](rng, cols, 0), sweepSlice[float32](rng, cols, 0)
					victim := lo + rng.Intn(rows)
					vrow := src.Row(victim)
					switch plant {
					case "cancel":
						// Every row holds values across sixteen decades and
						// their negatives in another order: the exact sum is
						// zero, the computed one is what the roundings leave,
						// so two columns added the other way round show in
						// the float32 output of the row's small elements
						// (about one row in fifty) — with no shift to absorb
						// them.
						clear(shift)
						for i := lo; i < lo+rows; i++ {
							row, half := src.Row(i), cols/2
							for j := 0; j < half; j++ {
								row[j] = float32(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(17)-8)))
							}
							for j, k := range rng.Perm(half) {
								row[half+j] = -row[k]
							}
						}
					case "zeros":
						for j := range vrow {
							vrow[j] = []float32{0, negZero}[rng.Intn(2)]
						}
					case "huge":
						for j := range vrow {
							vrow[j] *= 1e37
						}
					case "tiny":
						for j := range vrow {
							vrow[j] *= 1e-42
						}
					case "NaN":
						vrow[rng.Intn(cols)] = sweepValue[float32](rng, 1)
					case "Inf":
						vrow[rng.Intn(cols)] = float32(math.Inf(1 - 2*rng.Intn(2)))
					case "NaN+Inf":
						vrow[rng.Intn(cols)] = sweepValue[float32](rng, 1)
						vrow[rng.Intn(cols)] = float32(math.Inf(-1))
						vrow[rng.Intn(cols)] = sweepValue[float32](rng, 1)
					case "NaN gain+shift":
						j := rng.Intn(cols)
						gain[j], shift[j] = sweepValue[float32](rng, 1), sweepValue[float32](rng, 1)
					}
					want := New32(total, cols)
					copy(want.Data, src.Data)
					for i := lo; i < lo+rows; i++ {
						lnOneRow(want.Row(i), src.Row(i), gain, shift, eps)
					}
					what := fmt.Sprintf("rows=%d cols=%d %s", rows, cols, plant)

					got := New32(total, cols) // rows outside [lo, lo+rows) must stay as they were
					copy(got.Data, src.Data)
					LayerNorm32Rows(got, src, gain, shift, eps, lo, lo+rows)
					if i := mismatch(got.Data, want.Data); i >= 0 {
						t.Fatalf("%s: element %d (row %d, victim row %d) is %#x, want %#x", what, i, i/cols, victim, bitsOf(got.Data[i]), bitsOf(want.Data[i]))
					}
					LayerNorm32Rows(src, src, gain, shift, eps, lo, lo+rows)
					if i := mismatch(src.Data, want.Data); i >= 0 {
						t.Fatalf("%s, in place: element %d is %#x, want %#x", what, i, bitsOf(src.Data[i]), bitsOf(want.Data[i]))
					}
				}
			}
		}
	})
}
