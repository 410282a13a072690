package tensor

import (
	"testing"

	"meshgnn/internal/parallel"
)

// The zero-allocation contract of the hot kernels: with destinations
// provided (the *Into convention) the kernels bind their arguments to
// pooled tasks instead of closures, so a steady-state call performs no
// heap allocation. Asserted at Threads=1, which isolates kernel-owned
// allocations from the (also pooled, but sync.Pool-backed and therefore
// GC-sensitive) parallel dispatch path.
func assertZeroAlloc(t *testing.T, name string, f func()) {
	t.Helper()
	f() // warm pools
	if n := testing.AllocsPerRun(10, f); n != 0 {
		t.Errorf("%s allocates %v times per call in steady state", name, n)
	}
}

func TestKernelsZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	parallel.Configure(1, true)
	defer parallel.Configure(0, true)

	const rows, in, out = 128, 24, 16
	a := New(rows, in)
	w := New(in, out)
	y := New(rows, out)
	dy := New(rows, out)
	dw := New(in, out)
	dx := New(rows, in)
	for i := range a.Data {
		a.Data[i] = float64(i%7) - 3
	}
	for i := range w.Data {
		w.Data[i] = float64(i%5) - 2
	}
	for i := range dy.Data {
		dy.Data[i] = float64(i%3) - 1
	}
	bias := make([]float64, out)

	assertZeroAlloc(t, "MatMul", func() { MatMul(y, a, w) })
	assertZeroAlloc(t, "MatMulBiasRows", func() { MatMulBiasRows(y, a, w, bias, 0, rows) })
	assertZeroAlloc(t, "MatMulATB", func() { MatMulATB(dw, a, dy) })
	assertZeroAlloc(t, "MatMulATBAcc", func() { MatMulATBAcc(dw.Data, a, dy, 0, rows) })
	assertZeroAlloc(t, "AddRowVectorRows", func() { AddRowVectorRows(y, bias, 0, rows) })
	assertZeroAlloc(t, "ColSumsAcc", func() { ColSumsAcc(bias, dy, 0, rows) })
	xhat, lnAcc, inv := New(rows, out), make([]float64, 2*out), make([]float64, rows)
	for i := range inv {
		inv[i] = 1
	}
	assertZeroAlloc(t, "LayerNormParamGradAcc", func() { LayerNormParamGradAcc(lnAcc, dy, xhat, 0, rows) })
	assertZeroAlloc(t, "LayerNormGradRows", func() { LayerNormGradRows(y, dy, xhat, inv, bias, 0, rows) })
	assertZeroAlloc(t, "Add", func() { Add(y, y, y) })
	assertZeroAlloc(t, "AddScaled", func() { AddScaled(y, 1, dy) })
	assertZeroAlloc(t, "AddTo", func() { AddTo(y.Data, dy.Data) })
	y32, dy32 := Demote32(y), Demote32(dy)
	assertZeroAlloc(t, "AddTo float32", func() { AddTo(y32.Data, dy32.Data) })
	assertZeroAlloc(t, "Scale", func() { Scale(y, 1.0000001) })
	assertZeroAlloc(t, "CloneInto", func() { CloneInto(dx, a) })
	assertZeroAlloc(t, "CopyViewInto", func() { CopyViewInto(dx, a.View(0, in)) })
	assertZeroAlloc(t, "Zero", func() { y.Zero() })

	idx := make([]int, rows)
	for i := range idx {
		idx[i] = (i * 13) % rows
	}
	g := New(rows, in)
	assertZeroAlloc(t, "GatherRows", func() { GatherRows(g, a, idx) })
	scale := make([]float64, rows)
	assertZeroAlloc(t, "SpanAcc", func() { SpanAcc(dx.Row(0), a.Data, in, 0, idx, rows, scale) })
	a32, dx32 := Demote32(a), Demote32(dx)
	assertZeroAlloc(t, "SpanAcc float32", func() { SpanAcc(dx32.Row(0), a32.Data, in, 0, idx, rows, scale) })

	// Receiver-grouped scatter: every source row lands on row k/2.
	start := make([]int, rows+1)
	for i := 1; i <= rows; i++ {
		start[i] = min(2*i, rows)
	}
	assertZeroAlloc(t, "ScatterAddRowsGrouped", func() { ScatterAddRowsGrouped(dx, a, start, nil) })

	wide := New(rows, 2*in)
	assertZeroAlloc(t, "HCatInto", func() { HCatInto(wide, a, g) })
}

// TestHCatIntoMatchesHCat pins the Into kernel against the allocating
// wrapper.
func TestHCatIntoMatchesHCat(t *testing.T) {
	a := New(5, 3)
	b := New(5, 2)
	for i := range a.Data {
		a.Data[i] = float64(i)
	}
	for i := range b.Data {
		b.Data[i] = -float64(i)
	}
	want := HCat(a, b)
	got := New(5, 5)
	got.Data[0] = 99 // stale workspace contents must be overwritten
	HCatInto(got, a, b)
	if !got.Equal(want) {
		t.Fatal("HCatInto differs from HCat")
	}
}

// TestSplitColsViewAliases asserts views share storage with the parent
// and agree with the copying SplitCols.
func TestSplitColsViewAliases(t *testing.T) {
	m := New(4, 6)
	for i := range m.Data {
		m.Data[i] = float64(i)
	}
	views := SplitColsView(m, 2, 3, 1)
	mats := SplitCols(m, 2, 3, 1)
	for k := range views {
		for i := 0; i < 4; i++ {
			vr, mr := views[k].Row(i), mats[k].Row(i)
			for j := range vr {
				if vr[j] != mr[j] {
					t.Fatalf("view %d row %d col %d: %v vs %v", k, i, j, vr[j], mr[j])
				}
			}
		}
	}
	// Writing through a view must hit the parent.
	views[1].Row(2)[0] = 123
	if m.At(2, 2) != 123 {
		t.Fatal("view does not alias parent storage")
	}
}

// TestAddScaledFastPathExact pins the alpha==1 fast path bitwise against
// the generic path.
func TestAddScaledFastPathExact(t *testing.T) {
	a := New(3, 3)
	b := New(3, 3)
	for i := range a.Data {
		a.Data[i] = 0.1 * float64(i)
		b.Data[i] = 1e-17 * float64(i+1)
	}
	fast := a.Clone()
	AddScaled(fast, 1, b)
	slow := a.Clone()
	for i := range slow.Data {
		slow.Data[i] += 1 * b.Data[i]
	}
	if !fast.Equal(slow) {
		t.Fatal("alpha==1 fast path is not bitwise identical")
	}
}
