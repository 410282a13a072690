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
	assertZeroAlloc(t, "AddScaled", func() { AddScaled(y, 1, dy) })
	assertZeroAlloc(t, "AddTo", func() { AddTo(y.Data, dy.Data) })
	y32, dy32 := Demote32(y), Demote32(dy)
	assertZeroAlloc(t, "AddTo float32", func() { AddTo(y32.Data, dy32.Data) })
	assertZeroAlloc(t, "CloneInto", func() { CloneInto(dx, a) })
	assertZeroAlloc(t, "Zero", func() { y.Zero() })

	idx := make([]int, rows)
	for i := range idx {
		idx[i] = (i * 13) % rows
	}
	scale := make([]float64, rows)
	assertZeroAlloc(t, "SpanAcc", func() { SpanAcc(dx.Row(0), a.Data, in, 0, idx, rows, scale) })
	a32, dx32 := Demote32(a), Demote32(dx)
	assertZeroAlloc(t, "SpanAcc float32", func() { SpanAcc(dx32.Row(0), a32.Data, in, 0, idx, rows, scale) })
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
