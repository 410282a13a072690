package tensor

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"meshgnn/internal/parallel"
)

// Naive references: plain ascending-k accumulation, no blocking, no
// parallelism and no FMA — the semantic ground truth the products are
// checked against to a tolerance (their bits are held to the definition,
// fmaRows, by the sweeps of tier_test.go and atb_test.go).

func naiveMatMul(a, b *Matrix) *Matrix {
	dst := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			dst.Set(i, j, s)
		}
	}
	return dst
}

func naiveMatMulABT(a, b *Matrix) *Matrix {
	dst := New(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(j, k)
			}
			dst.Set(i, j, s)
		}
	}
	return dst
}

func naiveMatMulATB(a, b *Matrix) *Matrix {
	dst := New(a.Cols, b.Cols)
	for i := 0; i < a.Cols; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for r := 0; r < a.Rows; r++ {
				s += a.At(r, i) * b.At(r, j)
			}
			dst.Set(i, j, s)
		}
	}
	return dst
}

func maxRel(got, want *Matrix) float64 {
	var worst float64
	for i, w := range want.Data {
		d := math.Abs(got.Data[i] - w)
		if r := d / (1 + math.Abs(w)); r > worst {
			worst = r
		}
	}
	return worst
}

// withPlantedZeros zeroes a scattering of entries and a whole leading run
// of them, which the products multiply like any other value.
func withPlantedZeros(rng *rand.Rand, m *Matrix) {
	for i := range m.Data {
		if rng.Intn(5) == 0 {
			m.Data[i] = 0
		}
	}
	if m.Rows > 0 && m.Cols >= 8 {
		clear(m.Data[:min(8, len(m.Data))])
	}
}

// packedShapes are (M, K, N) triples chosen to hit every remainder path:
// row tails mod 4 and 8, and partial last panels (N mod 8, and mod 16 for
// float32).
var packedShapes = [][3]int{
	{1, 32, 32},   // single row
	{2, 64, 16},   // pair, exact panels
	{3, 32, 33},   // row tail + col tail 1
	{4, 128, 8},   // one panel exactly
	{5, 96, 32},   // tracked-shape columns, row tail 1
	{7, 37, 40},   // odd K
	{8, 33, 31},   // col tail 7 (all widths)
	{17, 64, 9},   // col tail 1 over 8-panel
	{33, 48, 24},  // col tail 0 mod 4, 8 for NR=8? 24 = 3*8 exact
	{64, 96, 35},  // col tail 3
	{129, 40, 26}, // everything ragged
}

func TestPackedMatMulMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, sh := range packedShapes {
		m, k, n := sh[0], sh[1], sh[2]
		a := randomMatrix(rng, m, k)
		b := randomMatrix(rng, k, n)
		withPlantedZeros(rng, a)
		want := naiveMatMul(a, b)

		dst := New(m, n)
		MatMul(dst, a, b)
		if rel := maxRel(dst, want); rel > 1e-12 {
			t.Errorf("MatMul %dx%dx%d diverges from naive: rel %g", m, k, n, rel)
		}
	}
}

// TestPackedKcBlocking: a float32 product is one pass over the whole K,
// with no Kc blocks to resume across, so on every rung — at the ragged
// shapes and at a K deeper than any cache block (2 100) — MatMul32 stays
// within tolerance of the float64 naive product.
func TestPackedKcBlocking(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	shapes := append(slices.Clone(packedShapes), [3]int{9, 2100, 21})
	atEachTier(t, func(t *testing.T) {
		for _, sh := range shapes {
			m, k, n := sh[0], sh[1], sh[2]
			a32, a64 := randomMatrix32(rng, m, k)
			b32, b64 := randomMatrix32(rng, k, n)
			want := naiveMatMul(a64, b64)
			dst := New32(m, n)
			MatMul32(dst, a32, b32)
			if rel := dst.MaxRelDiff64(want); rel > 1e-4*math.Sqrt(float64(k)) {
				t.Errorf("%dx%dx%d rel %g", m, k, n, rel)
			}
		}
	})
}

func TestPackedEmptyShapes(t *testing.T) {
	for _, sh := range [][3]int{{0, 32, 64}, {4, 0, 64}, {4, 32, 0}, {0, 0, 0}} {
		m, k, n := sh[0], sh[1], sh[2]
		dst := New(m, n)
		MatMul(dst, New(m, k), New(k, n)) // must not panic
	}
}

// TestMatMul32PackedEmptyProduct: with K = 0 the float32 product
// (MatMul32BiasRows) is +0 on every column, plus the column's bias when
// there is one — as float64's emptyProduct writes it — whatever the
// destination held before, on every rung; a lone partial panel, whole
// panels and a partial last one.
func TestMatMul32PackedEmptyProduct(t *testing.T) {
	atEachTier(t, func(t *testing.T) {
		for _, n := range []int{3, 16, 37} {
			bias := make([]float32, n)
			for j := range bias {
				bias[j] = float32(j) - 7.5
			}
			bias[2] = float32(math.Copysign(0, -1))
			for _, b := range [][]float32{nil, bias} {
				const m = 5
				dst := New32(m, n)
				for i := range dst.Data {
					dst.Data[i] = float32(math.NaN())
				}
				MatMul32BiasRows(dst, New32(m, 0), New32(0, n), b, 0, m)
				for i := 0; i < m; i++ {
					for j := 0; j < n; j++ {
						want := float32(0)
						if b != nil {
							want += b[j]
						}
						if got := dst.Data[i*n+j]; math.Float32bits(got) != math.Float32bits(want) {
							t.Fatalf("n=%d bias=%v: element (%d, %d) = %v (%#x), want %v (%#x)",
								n, b != nil, i, j, got, math.Float32bits(got), want, math.Float32bits(want))
						}
					}
				}
			}
		}
	})
}

// TestMatMul32PackedRowsOutsideHeaders: the float32 tiles index raw
// memory, so a row range past the operands' headers panics before a kernel
// runs — a header over a longer backing array (a row block of a stacked
// batch) is no licence to read or write the rows beyond it. The backing
// beyond the destination's header is still all 7s afterwards.
func TestMatMul32PackedRowsOutsideHeaders(t *testing.T) {
	sevens := func(rows, cols int) []float32 {
		v := make([]float32, rows*cols)
		for i := range v {
			v[i] = 7
		}
		return v
	}
	atEachTier(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(59))
		const header, backing, k = 5, 16, 64
		for _, n := range []int{32, 37} {
			aBack, dBack := sevens(backing, k), sevens(backing, n)
			a := &Matrix32{Rows: header, Cols: k, Data: aBack[:header*k]}
			dst := &Matrix32{Rows: header, Cols: n, Data: dBack[:header*n]}
			w, _ := randomMatrix32(rng, k, n)
			bias := sevens(1, n)
			for _, b := range [][]float32{nil, bias} {
				for _, r := range [][2]int{{0, 8}, {header, header + 1}, {-1, 2}} {
					func() {
						defer func() {
							if recover() == nil {
								t.Errorf("n=%d, bias %v, rows [%d, %d) of %d-row headers: no panic", n, b != nil, r[0], r[1], header)
							}
						}()
						MatMul32BiasRows(dst, a, w, b, r[0], r[1])
					}()
					for i, v := range dBack[header*n:] {
						if v != 7 {
							t.Fatalf("n=%d, bias %v, rows [%d, %d): backing element %d beyond the header is %v, want 7",
								n, b != nil, r[0], r[1], header*n+i, v)
						}
					}
				}
			}
		}
	})
}

// TestMatMul32BiasRowsStoresOnlyItsColumns: a partial last panel is
// stored through lane masks, so a product whose destination ends exactly
// at column N of its last row — a Matrix32 over a prefix of a longer
// backing array — leaves every element past it as it was, on every rung,
// at widths that end in a lone partial panel, a whole one and a partial
// one after whole ones, at heights of every 4- and 8-row tile remainder.
func TestMatMul32BiasRowsStoresOnlyItsColumns(t *testing.T) {
	const guard = 64
	sentinel := math.Float32frombits(0x7fc0beef)
	atEachTier(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(61))
		for _, n := range []int{1, 3, 8, 13, 16, 17, 37} {
			for _, rows := range []int{1, 3, 4, 5, 8, 9, 13, 17} {
				x, _ := randomMatrix32(rng, rows, 24)
				w, _ := randomMatrix32(rng, 24, n)
				bias, _ := randomMatrix32(rng, 1, n)
				back := make([]float32, rows*n+guard)
				for i := range back {
					back[i] = sentinel
				}
				dst := &Matrix32{Rows: rows, Cols: n, Data: back[:rows*n]}
				MatMul32BiasRows(dst, x, w, bias.Data, 0, rows)
				want := New32(rows, n)
				MatMul32BiasRows(want, x, w, bias.Data, 0, rows)
				if i := mismatch(dst.Data, want.Data); i >= 0 {
					t.Fatalf("%dx24·%d: element %d is %#x, want %#x", rows, n, i, bitsOf(dst.Data[i]), bitsOf(want.Data[i]))
				}
				for i, v := range back[rows*n:] {
					if math.Float32bits(v) != math.Float32bits(sentinel) {
						t.Fatalf("%dx24·%d: element %d past the last row's column %d is %#x, want the sentinel",
							rows, n, i, n, math.Float32bits(v))
					}
				}
			}
		}
	})
}

func TestPackedMatMulBitwiseAcrossThreads(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const m, k, n = 515, 96, 33 // ragged everywhere
	a := randomMatrix(rng, m, k)
	b := randomMatrix(rng, k, n)
	outs := runAtThreads(t, []int{1, 2, 3, 8}, func() *Matrix {
		dst := New(m, n)
		MatMul(dst, a, b)
		return dst
	})
	for i := 1; i < len(outs); i++ {
		if !outs[i].Equal(outs[0]) {
			t.Errorf("MatMul differs between thread settings (case %d)", i)
		}
	}
}

// TestPackedRowPartitionInvariance pins the property the partition suites
// rely on: computing a row block in isolation gives bitwise the rows of
// the full product — however the mesh is split across ranks.
func TestPackedRowPartitionInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	const m, k, n = 37, 96, 32
	a := randomMatrix(rng, m, k)
	b := randomMatrix(rng, k, n)
	full := New(m, n)
	MatMul(full, a, b)
	for _, cut := range []int{1, 3, 4, 18, 36} {
		top := FromSlice(cut, k, a.Data[:cut*k])
		bot := FromSlice(m-cut, k, a.Data[cut*k:])
		got := New(m, n)
		MatMul(FromSlice(cut, n, got.Data[:cut*n]), top, b)
		MatMul(FromSlice(m-cut, n, got.Data[cut*n:]), bot, b)
		if !got.Equal(full) {
			t.Errorf("row partition at %d changes bits", cut)
		}
	}
}

func TestPackedMatMulABTMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, sh := range [][3]int{{5, 33, 96}, {64, 32, 96}, {7, 40, 37}, {128, 32, 33}} {
		m, k, n := sh[0], sh[1], sh[2] // dst m×n = a(m×k)·b(n×k)ᵀ
		a := randomMatrix(rng, m, k)
		b := randomMatrix(rng, n, k)
		want := naiveMatMulABT(a, b)
		dst := New(m, n)
		matMulABT(dst, a, b)
		if rel := maxRel(dst, want); rel > 1e-12 {
			t.Errorf("MatMulABT %v rel %g", sh, rel)
		}
	}
}

func TestPackedMatMulATBMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, sh := range [][3]int{{515, 33, 40}, {1029, 96, 32}, {97, 130, 9}, {257, 37, 33}} {
		rows, in, n := sh[0], sh[1], sh[2]
		a := randomMatrix(rng, rows, in)
		b := randomMatrix(rng, rows, n)
		want := naiveMatMulATB(a, b)
		dst := New(in, n)
		MatMulATB(dst, a, b)
		if rel := maxRel(dst, want); rel > 1e-11 {
			t.Errorf("MatMulATB %v rel %g", sh, rel)
		}
		outs := runAtThreads(t, []int{1, 2, 5}, func() *Matrix {
			d := New(in, n)
			MatMulATB(d, a, b)
			return d
		})
		for i := 1; i < len(outs); i++ {
			if !outs[i].Equal(outs[0]) {
				t.Errorf("MatMulATB %v differs across thread settings", sh)
			}
		}
	}
}

func TestPackedZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	parallel.Configure(1, true)
	defer parallel.Configure(0, true)
	rng := rand.New(rand.NewSource(37))
	a := randomMatrix(rng, 64, 96)
	b := randomMatrix(rng, 96, 32)
	dst := New(64, 32)
	assertZeroAlloc(t, "MatMul", func() { MatMul(dst, a, b) })
	w, wT := randomMatrix(rng, 33, 96), New(96, 33)
	dabt := New(64, 33)
	assertZeroAlloc(t, "MatMulBiasRows(dy·wᵀ)", func() {
		TransposeInto(wT, w)
		MatMulBiasRows(dabt, a, wT, nil, 0, 64)
	})
	datb := New(96, 32)
	bb := randomMatrix(rng, 64, 32)
	assertZeroAlloc(t, "MatMulATB", func() { MatMulATB(datb, a, bb) })
}

// --- float32 tier ---------------------------------------------------------

func randomMatrix32(rng *rand.Rand, rows, cols int) (*Matrix32, *Matrix) {
	m64 := randomMatrix(rng, rows, cols)
	return Demote32(m64), m64
}

func TestMatMul32MatchesF64Oracle(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, sh := range [][3]int{{5, 96, 32}, {64, 96, 35}, {3, 32, 33}, {129, 40, 15}, {17, 64, 17}} {
		m, k, n := sh[0], sh[1], sh[2]
		a32, a64 := randomMatrix32(rng, m, k)
		b32, b64 := randomMatrix32(rng, k, n)
		oracle := naiveMatMul(a64, b64)
		dst := New32(m, n)
		MatMul32(dst, a32, b32)
		if rel := dst.MaxRelDiff64(oracle); rel > 1e-4*math.Sqrt(float64(k)) {
			t.Errorf("MatMul32 %v rel %g vs f64 oracle", sh, rel)
		}
	}
}

// TestMatMul32PackedMatchesScalar holds the s-tiles of the current rung
// and the go rung's float32 loop (mulRows32) to each other within a
// tolerance, bias included: the same order per element, the tiles fused,
// the loop not.
func TestMatMul32PackedMatchesScalar(t *testing.T) {
	if !SIMDEnabled() {
		t.Skip("the s-tiles need a SIMD rung")
	}
	rng := rand.New(rand.NewSource(43))
	for _, sh := range [][3]int{{5, 96, 32}, {64, 64, 48}, {7, 40, 37}, {33, 96, 16}, {70, 3, 32}, {70, 32, 3}} {
		m, k, n := sh[0], sh[1], sh[2]
		a32, _ := randomMatrix32(rng, m, k)
		b32, _ := randomMatrix32(rng, k, n)
		bias, _ := randomMatrix32(rng, 1, n)
		tiles := New32(m, n)
		MatMul32BiasRows(tiles, a32, b32, bias.Data, 0, m)

		scalar := New32(m, n)
		prev := setKernelTier(tierGo)
		MatMul32BiasRows(scalar, a32, b32, bias.Data, 0, m)
		setKernelTier(prev)

		var worst float64
		for i := range tiles.Data {
			d := math.Abs(float64(tiles.Data[i]) - float64(scalar.Data[i]))
			if r := d / (1 + math.Abs(float64(scalar.Data[i]))); r > worst {
				worst = r
			}
		}
		if worst > 1e-5 {
			t.Errorf("f32 tiles vs scalar %v rel %g", sh, worst)
		}
	}
}

func TestMatMul32BitwiseAcrossThreads(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	const m, k, n = 515, 96, 33
	a32, _ := randomMatrix32(rng, m, k)
	b32, _ := randomMatrix32(rng, k, n)
	defer parallel.Configure(0, true)
	var base *Matrix32
	for _, th := range []int{1, 2, 8} {
		parallel.SetThreads(th)
		dst := New32(m, n)
		MatMul32(dst, a32, b32)
		if base == nil {
			base = dst
			continue
		}
		for i := range dst.Data {
			if dst.Data[i] != base.Data[i] {
				t.Fatalf("MatMul32 differs at threads=%d (index %d)", th, i)
			}
		}
	}
}

func TestDemotePromoteRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	m64 := randomMatrix(rng, 7, 9)
	m32 := Demote32(m64)
	back := New(7, 9)
	PromoteInto64(back, m32)
	for i := range back.Data {
		if back.Data[i] != float64(float32(m64.Data[i])) {
			t.Fatal("demote/promote is not the f32 rounding of the source")
		}
	}
	if rel := m32.MaxRelDiff64(m64); rel > 1e-6 {
		t.Errorf("round-trip rel %g", rel)
	}
}

// FuzzPackedMatMul drives random shapes and data through MatMul and
// cross-checks the naive reference.
func FuzzPackedMatMul(f *testing.F) {
	f.Add(uint16(5), uint16(96), uint16(32), int64(1))
	f.Add(uint16(1), uint16(33), uint16(31), int64(2))
	f.Add(uint16(8), uint16(128), uint16(9), int64(3))
	f.Fuzz(func(t *testing.T, mRaw, kRaw, nRaw uint16, seed int64) {
		m := int(mRaw%64) + 1
		k := int(kRaw % 200)
		n := int(nRaw % 70)
		rng := rand.New(rand.NewSource(seed))
		a := randomMatrix(rng, m, k)
		b := randomMatrix(rng, k, n)
		withPlantedZeros(rng, a)
		want := naiveMatMul(a, b)
		dst := New(m, n)
		MatMul(dst, a, b)
		if rel := maxRel(dst, want); rel > 1e-11 {
			t.Fatalf("MatMul %dx%dx%d rel %g", m, k, n, rel)
		}
	})
}

// FuzzPackedDeterminism re-runs one product at several thread counts and
// demands bitwise equality — MatMul's core contract.
func FuzzPackedDeterminism(f *testing.F) {
	f.Add(uint16(19), int64(1))
	f.Fuzz(func(t *testing.T, mRaw uint16, seed int64) {
		m := int(mRaw%128) + 1
		rng := rand.New(rand.NewSource(seed))
		a := randomMatrix(rng, m, 64)
		b := randomMatrix(rng, 64, 24)
		defer parallel.Configure(0, true)
		parallel.SetThreads(1)
		base := New(m, 24)
		MatMul(base, a, b)
		for _, th := range []int{2, 7} {
			parallel.SetThreads(th)
			got := New(m, 24)
			MatMul(got, a, b)
			if !got.Equal(base) {
				t.Fatalf("threads=%d changes MatMul bits (m=%d)", th, m)
			}
		}
	})
}
