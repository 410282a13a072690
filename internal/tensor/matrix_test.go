package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewShape(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("New(3,4) = %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("New must zero-initialize")
		}
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative dims")
		}
	}()
	New(-1, 2)
}

func TestFromSliceAliases(t *testing.T) {
	d := []float64{1, 2, 3, 4, 5, 6}
	m := FromSlice(2, 3, d)
	m.Set(0, 1, 42)
	if d[1] != 42 {
		t.Fatal("FromSlice must alias the provided slice")
	}
	if m.At(1, 2) != 6 {
		t.Fatalf("At(1,2) = %v, want 6", m.At(1, 2))
	}
}

func TestFromSliceLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for bad length")
		}
	}()
	FromSlice(2, 3, []float64{1})
}

func TestRowAliases(t *testing.T) {
	m := New(2, 2)
	r := m.Row(1)
	r[0] = 7
	if m.At(1, 0) != 7 {
		t.Fatal("Row must alias storage")
	}
}

func TestCloneIndependent(t *testing.T) {
	m := FromSlice(1, 2, []float64{1, 2})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone must deep-copy")
	}
}

func TestEqualAndMaxAbsDiff(t *testing.T) {
	a := FromSlice(2, 2, []float64{1, 2, 3, 4})
	b := a.Clone()
	if !a.Equal(b) {
		t.Fatal("clones must compare equal")
	}
	b.Set(1, 1, 4.5)
	if a.Equal(b) {
		t.Fatal("differing entries must not be equal")
	}
	if got := a.MaxAbsDiff(b); got != 0.5 {
		t.Fatalf("MaxAbsDiff = %v, want 0.5", got)
	}
	if a.Equal(New(2, 3)) {
		t.Fatal("shape mismatch must not be equal")
	}
}

func randMat(rng *rand.Rand, r, c int) *Matrix {
	m := New(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// naive reference multiply for cross-checking the tuned kernels.
func refMatMul(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func TestMatMulAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		m, k, n := 1+rng.Intn(12), 1+rng.Intn(12), 1+rng.Intn(12)
		a, b := randMat(rng, m, k), randMat(rng, k, n)
		got := New(m, n)
		MatMul(got, a, b)
		want := refMatMul(a, b)
		if got.MaxAbsDiff(want) > 1e-12 {
			t.Fatalf("trial %d: MatMul differs from reference by %g", trial, got.MaxAbsDiff(want))
		}
	}
}

func TestMatMulATB(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		m, k, n := 1+rng.Intn(10), 1+rng.Intn(10), 1+rng.Intn(10)
		a, b := randMat(rng, m, k), randMat(rng, m, n)
		got := New(k, n)
		MatMulATB(got, a, b)
		// reference: transpose a then multiply.
		at := New(k, m)
		for i := 0; i < m; i++ {
			for j := 0; j < k; j++ {
				at.Set(j, i, a.At(i, j))
			}
		}
		want := refMatMul(at, b)
		if got.MaxAbsDiff(want) > 1e-12 {
			t.Fatalf("trial %d: MatMulATB differs by %g", trial, got.MaxAbsDiff(want))
		}
	}
}

func TestMatMulABT(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		m, k, n := 1+rng.Intn(10), 1+rng.Intn(10), 1+rng.Intn(10)
		a, b := randMat(rng, m, k), randMat(rng, n, k)
		got := New(m, n)
		matMulABT(got, a, b)
		bt := New(k, n)
		for i := 0; i < n; i++ {
			for j := 0; j < k; j++ {
				bt.Set(j, i, b.At(i, j))
			}
		}
		want := refMatMul(a, bt)
		if got.MaxAbsDiff(want) > 1e-12 {
			t.Fatalf("trial %d: MatMulABT differs by %g", trial, got.MaxAbsDiff(want))
		}
	}
}

func TestMatMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected shape panic")
		}
	}()
	MatMul(New(2, 2), New(2, 3), New(2, 2))
}

func TestAddRowVectorAndColSums(t *testing.T) {
	m := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	addRowVector(m, []float64{10, 20, 30})
	want := []float64{11, 22, 33, 14, 25, 36}
	for i, v := range want {
		if m.Data[i] != v {
			t.Fatalf("AddRowVector[%d] = %v, want %v", i, m.Data[i], v)
		}
	}
	sums := make([]float64, 3)
	colSums(sums, m)
	if sums[0] != 25 || sums[1] != 47 || sums[2] != 69 {
		t.Fatalf("ColSums = %v", sums)
	}
}

func TestAddAndAddScaledAndScale(t *testing.T) {
	a := FromSlice(1, 3, []float64{1, 2, 3})
	b := FromSlice(1, 3, []float64{10, 20, 30})
	dst := New(1, 3)
	Add(dst, a, b)
	if dst.Data[2] != 33 {
		t.Fatalf("Add = %v", dst.Data)
	}
	AddScaled(dst, 2, a)
	if dst.Data[0] != 13 {
		t.Fatalf("AddScaled = %v", dst.Data)
	}
	Scale(dst, 0.5)
	if dst.Data[0] != 6.5 {
		t.Fatalf("Scale = %v", dst.Data)
	}
}

func TestGatherScatterRoundTrip(t *testing.T) {
	src := FromSlice(4, 2, []float64{0, 1, 10, 11, 20, 21, 30, 31})
	idx := []int{2, 0, 2}
	g := New(3, 2)
	GatherRows(g, src, idx)
	if g.At(0, 1) != 21 || g.At(1, 0) != 0 || g.At(2, 0) != 20 {
		t.Fatalf("GatherRows = %v", g.Data)
	}
	dst := New(4, 2)
	ScatterAddRows(dst, g, idx)
	// row 2 received two contributions.
	if dst.At(2, 0) != 40 || dst.At(2, 1) != 42 || dst.At(0, 0) != 0 {
		t.Fatalf("ScatterAddRows = %v", dst.Data)
	}
}

// Property: ScatterAddRows is the adjoint of GatherRows:
// <gather(x), y> == <x, scatter(y)> for all x, y, idx.
func TestGatherScatterAdjointProperty(t *testing.T) {
	f := func(seed int64, nSrc8, nIdx8 uint8) bool {
		nSrc := int(nSrc8%16) + 1
		nIdx := int(nIdx8 % 32)
		rng := rand.New(rand.NewSource(seed))
		x := randMat(rng, nSrc, 3)
		y := randMat(rng, nIdx, 3)
		idx := make([]int, nIdx)
		for i := range idx {
			idx[i] = rng.Intn(nSrc)
		}
		gx := New(nIdx, 3)
		GatherRows(gx, x, idx)
		sy := New(nSrc, 3)
		ScatterAddRows(sy, y, idx)
		lhs := Dot(gx, y)
		rhs := Dot(x, sy)
		return math.Abs(lhs-rhs) <= 1e-9*(1+math.Abs(lhs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHCatSplitColsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a, b, c := randMat(rng, 3, 2), randMat(rng, 3, 4), randMat(rng, 3, 1)
	h := HCat(a, b, c)
	if h.Rows != 3 || h.Cols != 7 {
		t.Fatalf("HCat shape %dx%d", h.Rows, h.Cols)
	}
	parts := SplitCols(h, 2, 4, 1)
	if !parts[0].Equal(a) || !parts[1].Equal(b) || !parts[2].Equal(c) {
		t.Fatal("SplitCols did not invert HCat")
	}
}

func TestHCatEmpty(t *testing.T) {
	h := HCat()
	if h.Rows != 0 || h.Cols != 0 {
		t.Fatal("HCat() must be empty")
	}
}

func TestFrobeniusAndDot(t *testing.T) {
	m := FromSlice(1, 2, []float64{3, 4})
	if Frobenius(m) != 5 {
		t.Fatalf("Frobenius = %v", Frobenius(m))
	}
	n := FromSlice(1, 2, []float64{2, 1})
	if Dot(m, n) != 10 {
		t.Fatalf("Dot = %v", Dot(m, n))
	}
}

// Property: (A·B)ᵀ contraction identity — Frobenius inner products match:
// <A·B, C> == <B, Aᵀ·C> == <A, C·Bᵀ>.
func TestGEMMAdjointIdentities(t *testing.T) {
	f := func(seed int64, m8, k8, n8 uint8) bool {
		m, k, n := int(m8%8)+1, int(k8%8)+1, int(n8%8)+1
		rng := rand.New(rand.NewSource(seed))
		a, b, c := randMat(rng, m, k), randMat(rng, k, n), randMat(rng, m, n)
		ab := New(m, n)
		MatMul(ab, a, b)
		atc := New(k, n)
		MatMulATB(atc, a, c)
		cbt := New(m, k)
		matMulABT(cbt, c, b)
		l1 := Dot(ab, c)
		l2 := Dot(b, atc)
		l3 := Dot(a, cbt)
		tol := 1e-9 * (1 + math.Abs(l1))
		return math.Abs(l1-l2) <= tol && math.Abs(l1-l3) <= tol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMatMul128(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := randMat(rng, 128, 128)
	c := randMat(rng, 128, 128)
	dst := New(128, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MatMul(dst, a, c)
	}
}

func BenchmarkMatMulEdgeBatch(b *testing.B) {
	// Shape representative of the edge-update MLP in the "large" model:
	// a batch of edges (rows) times a 96->32 weight matrix.
	rng := rand.New(rand.NewSource(1))
	a := randMat(rng, 4096, 96)
	w := randMat(rng, 96, 32)
	dst := New(4096, 32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MatMul(dst, a, w)
	}
}

func TestSplitColsBadWidthsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SplitCols(New(2, 4), 1, 1) // widths sum to 2, not 4
}

func TestHCatRowMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	HCat(New(2, 1), New(3, 1))
}

func TestCopyFromShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 2).CopyFrom(New(2, 3))
}
