package tensor

import (
	"math/rand"
	"strings"
	"testing"

	"meshgnn/internal/parallel"
)

func randomMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// runAtThreads evaluates f under each thread count and returns the
// results, restoring the engine default afterwards.
func runAtThreads(t *testing.T, counts []int, f func() *Matrix) []*Matrix {
	t.Helper()
	defer parallel.Configure(0, true)
	out := make([]*Matrix, len(counts))
	for i, n := range counts {
		parallel.SetThreads(n)
		out[i] = f()
	}
	return out
}

// TestKernelsBitwiseAcrossThreads pins the engine's core guarantee at the
// kernel level: every tensor kernel produces bitwise-identical output for
// Threads in {1, 2, 8}, including the reduction GEMMs whose naive
// parallelization would reassociate sums.
func TestKernelsBitwiseAcrossThreads(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n, in, out = 513, 33, 17 // odd sizes exercise ragged chunking
	a := randomMatrix(rng, n, in)
	b := randomMatrix(rng, in, out)
	c := randomMatrix(rng, n, out)
	d := randomMatrix(rng, n, in)
	threads := []int{1, 2, 8}

	kernels := map[string]func() *Matrix{
		"MatMul": func() *Matrix {
			dst := New(n, out)
			MatMul(dst, a, b)
			return dst
		},
		"MatMulATB": func() *Matrix {
			dst := New(in, out)
			MatMulATB(dst, a, c)
			return dst
		},
		"Add": func() *Matrix {
			dst := New(n, in)
			Add(dst, a, d)
			return dst
		},
		"AddScaled": func() *Matrix {
			dst := a.Clone()
			AddScaled(dst, 0.37, d)
			return dst
		},
		"Scale": func() *Matrix {
			dst := a.Clone()
			Scale(dst, 1.0/3.0)
			return dst
		},
		"HCat": func() *Matrix { return HCat(a, d, c) },
		"Frobenius": func() *Matrix {
			dst := New(1, 1)
			dst.Data[0] = Frobenius(a)
			return dst
		},
		"Dot": func() *Matrix {
			dst := New(1, 1)
			dst.Data[0] = Dot(a, d)
			return dst
		},
	}
	for name, k := range kernels {
		results := runAtThreads(t, threads, k)
		for i := 1; i < len(results); i++ {
			if !results[i].Equal(results[0]) {
				t.Errorf("%s: Threads=%d differs from Threads=%d (max |Δ| = %g)",
					name, threads[i], threads[0], results[i].MaxAbsDiff(results[0]))
			}
		}
	}
}

// TestGatherScatterAcrossThreads covers the indexed kernels with a
// receiver-grouped index set, against both the serial general scatter and
// across thread counts.
func TestGatherScatterAcrossThreads(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const nDst, nSrc, cols = 101, 997, 7
	src := randomMatrix(rng, nSrc, cols)
	// Receiver-grouped index list (ascending): CSR over destinations.
	idx := make([]int, nSrc)
	start := make([]int, nDst+1)
	for k := range idx {
		idx[k] = k * nDst / nSrc // non-uniform, monotone ascending
	}
	for _, i := range idx {
		start[i+1]++
	}
	for i := 0; i < nDst; i++ {
		start[i+1] += start[i]
	}

	ref := New(nDst, cols)
	ScatterAddRows(ref, src, idx) // serial reference

	results := runAtThreads(t, []int{1, 2, 8}, func() *Matrix {
		dst := New(nDst, cols)
		ScatterAddRowsGrouped(dst, src, start, nil)
		return dst
	})
	for i, got := range results {
		if !got.Equal(ref) {
			t.Errorf("ScatterAddRowsGrouped at threads index %d differs from serial ScatterAddRows", i)
		}
	}

	// Explicit order permutation (identity here) must match too.
	order := make([]int, nSrc)
	for k := range order {
		order[k] = k
	}
	got := New(nDst, cols)
	ScatterAddRowsGrouped(got, src, start, order)
	if !got.Equal(ref) {
		t.Error("ScatterAddRowsGrouped with explicit order differs")
	}

	gathers := runAtThreads(t, []int{1, 8}, func() *Matrix {
		dst := New(nSrc, cols)
		GatherRows(dst, ref, idx)
		return dst
	})
	if !gathers[1].Equal(gathers[0]) {
		t.Error("GatherRows differs across thread counts")
	}
}

// expectPanic asserts fn panics with a tensor:-prefixed message.
func expectPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Errorf("%s: expected panic", name)
			return
		}
		msg, ok := r.(string)
		if !ok || !strings.HasPrefix(msg, "tensor: ") {
			t.Errorf("%s: panic %v lacks tensor: prefix", name, r)
		}
	}()
	fn()
}

// TestIndexValidation asserts out-of-range gather/scatter indices fail
// with diagnosable tensor:-prefixed messages rather than bare slice
// panics.
func TestIndexValidation(t *testing.T) {
	src := New(4, 3)
	dst := New(2, 3)
	expectPanic(t, "GatherRows high", func() {
		GatherRows(dst, src, []int{0, 4})
	})
	expectPanic(t, "GatherRows negative", func() {
		GatherRows(dst, src, []int{-1, 0})
	})
	expectPanic(t, "ScatterAddRows high", func() {
		ScatterAddRows(dst, src, []int{0, 1, 2, 0})
	})
	expectPanic(t, "ScatterAddRows negative", func() {
		ScatterAddRows(dst, src, []int{0, -2, 1, 0})
	})
	expectPanic(t, "ScatterAddRowsGrouped order", func() {
		ScatterAddRowsGrouped(dst, src, []int{0, 1, 2}, []int{0, 9})
	})
	expectPanic(t, "ScatterAddRowsGrouped start", func() {
		ScatterAddRowsGrouped(dst, src, []int{0, 3, 9}, nil)
	})
	expectPanic(t, "ScatterAddRowsGrouped start vs order", func() {
		ScatterAddRowsGrouped(dst, src, []int{0, 2, 3}, []int{0, 1})
	})
	expectPanic(t, "ScatterAddRowsGrouped non-monotonic", func() {
		ScatterAddRowsGrouped(dst, src, []int{3, 0, 4}, nil)
	})
}

// TestKernelsEmptyInputs exercises the degenerate shapes where chunking
// collapses entirely.
func TestKernelsEmptyInputs(t *testing.T) {
	defer parallel.Configure(0, true)
	parallel.SetThreads(8)
	empty := New(0, 5)
	b := New(5, 3)
	dst := New(0, 3)
	MatMul(dst, empty, b) // must not panic or dispatch
	atb := New(5, 3)
	MatMulATB(atb, empty, New(0, 3))
	if Frobenius(atb) != 0 {
		t.Error("MatMulATB over zero rows should leave dst zero")
	}
	GatherRows(New(0, 5), empty, nil)
	ScatterAddRows(New(3, 5), New(0, 5), nil)
	ScatterAddRowsGrouped(New(0, 5), empty, []int{0}, nil)
	if Dot(empty, empty) != 0 {
		t.Error("Dot over empty matrices should be 0")
	}
}
