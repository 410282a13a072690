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
// parallelization would reassociate sums — MatMulATB also at the
// benchmark probe's shape (3072×96)ᵀ·(3072×32), 37 chunks of 85 rows.
func TestKernelsBitwiseAcrossThreads(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n, in, out = 513, 33, 17 // odd sizes exercise ragged chunking
	a := randomMatrix(rng, n, in)
	b := randomMatrix(rng, in, out)
	c := randomMatrix(rng, n, out)
	d := randomMatrix(rng, n, in)
	x, dy := randomMatrix(rng, 3072, 96), randomMatrix(rng, 3072, 32)
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
		"MatMulATB probe": func() *Matrix {
			dst := New(96, 32)
			MatMulATB(dst, x, dy)
			return dst
		},
		"AddScaled": func() *Matrix {
			dst := a.Clone()
			AddScaled(dst, 0.37, d)
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

// TestIndexValidation asserts that row indices outside a matrix fail with
// diagnosable tensor:-prefixed messages rather than bare slice panics.
func TestIndexValidation(t *testing.T) {
	m, m32 := New(4, 3), New32(4, 3)
	var dst Matrix
	var dst32 Matrix32
	expectPanic(t, "SliceRows high", func() { m.SliceRows(&dst, 2, 5) })
	expectPanic(t, "SliceRows negative", func() { m.SliceRows(&dst, -1, 2) })
	expectPanic(t, "SliceRows reversed", func() { m.SliceRows(&dst, 3, 2) })
	expectPanic(t, "Matrix32 SliceRows high", func() { m32.SliceRows(&dst32, 0, 5) })
	expectPanic(t, "MatMulBiasRows high", func() { MatMulBiasRows(New(4, 2), m, New(3, 2), nil, 0, 5) })
	expectPanic(t, "MatMulBiasRows negative", func() { MatMulBiasRows(New(4, 2), m, New(3, 2), nil, -1, 2) })
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
	if !atb.Equal(New(5, 3)) {
		t.Error("MatMulATB over zero rows should leave dst zero")
	}
	GatherEdgeRows[float64](nil, nil, nil, nil, 5)
	GatherAddEdgeRows[float64](nil, nil, nil, nil, 5)
}
