package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// Whole-matrix forms of the row-range bodies, composed the way a caller
// that owns the parallel region composes them (internal/nn): one range for
// the row maps, ReduceGrain chunks merged in ascending order for the
// reductions.

// matMulABT is dst = a·bᵀ the way internal/nn's Linear computes its input
// gradient: the linear layer on the transpose.
func matMulABT(dst, a, b *Matrix) {
	if dst.Rows != a.Rows {
		panic("tensor: matMulABT row mismatch")
	}
	MatMulBiasRows(dst, a, transposed(b), nil, 0, a.Rows)
}

func transposed(m *Matrix) *Matrix {
	t := New(m.Cols, m.Rows)
	TransposeInto(t, m)
	return t
}

func addRowVector(m *Matrix, v []float64) { AddRowVectorRows(m, v, 0, m.Rows) }

func colSums(dst []float64, m *Matrix) {
	grain := ReduceGrain(m.Cols)
	acc := make([]float64, m.Cols)
	for lo := 0; lo < m.Rows; lo += grain {
		clear(acc)
		ColSumsAcc(acc, m, lo, min(lo+grain, m.Rows))
		for j, v := range acc {
			dst[j] += v
		}
	}
}

// TestRowBodiesIgnoreRangeBoundaries: a row's bits never depend on which
// [lo, hi) range computed it — the property that lets a caller tile the
// bodies into panels of its own — and MatMulATBAcc chunked by ReduceGrain
// is MatMulATB.
func TestRowBodiesIgnoreRangeBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	const rows = 139
	cuts := []int{0, 1, 4, 5, 64, 67, 128, rows}
	for _, sh := range [][2]int{{96, 32}, {32, 32}, {12, 7}, {33, 37}} {
		in, out := sh[0], sh[1]
		x := randomMatrix(rng, rows, in)
		w := randomMatrix(rng, in, out)
		dy := randomMatrix(rng, rows, out)
		bias := randomMatrix(rng, 1, out).Data

		bodies := map[string]func(dst *Matrix, lo, hi int){
			"MatMulBiasRows": func(dst *Matrix, lo, hi int) { MatMulBiasRows(dst, x, w, bias, lo, hi) },
			"AddRowVectorRows": func(dst *Matrix, lo, hi int) {
				copy(dst.Data[lo*out:hi*out], dy.Data[lo*out:hi*out])
				AddRowVectorRows(dst, bias, lo, hi)
			},
		}
		for name, body := range bodies {
			whole, pieces := New(rows, out), New(rows, out)
			body(whole, 0, rows)
			for i := 0; i+1 < len(cuts); i++ {
				body(pieces, cuts[i], cuts[i+1])
			}
			if !whole.Equal(pieces) {
				t.Errorf("%s %dx%d: row ranges change bits", name, in, out)
			}
		}

		// dx = dy·wᵀ is MatMul(dy, wᵀ): by row ranges, the linear layer on
		// the transpose.
		wT := transposed(w)
		whole, pieces := New(rows, in), New(rows, in)
		MatMul(whole, dy, wT)
		for i := 0; i+1 < len(cuts); i++ {
			MatMulBiasRows(pieces, dy, wT, nil, cuts[i], cuts[i+1])
		}
		if !whole.Equal(pieces) {
			t.Errorf("dy·wᵀ %dx%d: by row ranges it is not MatMul(dy, wᵀ)", in, out)
		}

		// The reduction body, chunked as documented, is MatMulATB.
		want, got := New(in, out), New(in, out)
		MatMulATB(want, x, dy)
		grain := ReduceGrain(in * out)
		acc := make([]float64, in*out)
		for lo := 0; lo < rows; lo += grain {
			clear(acc)
			MatMulATBAcc(acc, x, dy, lo, min(lo+grain, rows))
			for i, v := range acc {
				got.Data[i] += v
			}
		}
		for i := range want.Data {
			if math.Float64bits(want.Data[i]) != math.Float64bits(got.Data[i]) {
				t.Fatalf("MatMulATBAcc %dx%d: chunked body differs from MatMulATB at %d", in, out, i)
			}
		}
	}
	t.Run("AddRowVectorRowsMatchesScalar", addRowVectorRowsMatchesScalar)
	t.Run("PackBTIsMatMulOfTranspose", transposeProductIsDefinition)
}

// transposeProductIsDefinition: on every rung, dx = dy·Wᵀ the way
// internal/nn's Linear computes it — TransposeInto a buffer, then
// MatMulBiasRows by row ranges — is the float64 product's definition on a
// transpose written out element by element, a partial last panel
// included, at LargeConfig's 32×96 and 96×32 weights and ragged shapes.
// It runs under the subtest name PackBTIsMatMulOfTranspose.
func transposeProductIsDefinition(t *testing.T) {
	atEachTier(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(77))
		for _, sh := range [][2]int{{96, 32}, {32, 96}, {33, 37}, {37, 33}, {130, 9}} {
			in, out := sh[0], sh[1] // w is in×out; dy·wᵀ is 23×in
			w, dy := randomMatrix(rng, in, out), randomMatrix(rng, 23, out)
			wT := New(out, in)
			for i := 0; i < in; i++ {
				for j := 0; j < out; j++ {
					wT.Data[j*in+i] = w.Data[i*out+j]
				}
			}
			want := New(23, in)
			definition(want.Data, in, dy.Data, out, 1, wT.Data, in, out, in, nil, 0, 0, 23)

			buf, got := New(out, in), New(23, in)
			for i := range buf.Data {
				buf.Data[i] = math.NaN() // every element must be refilled
			}
			TransposeInto(buf, w)
			for _, r := range [][2]int{{0, 5}, {5, 8}, {8, 23}} {
				MatMulBiasRows(got, dy, buf, nil, r[0], r[1])
			}
			if i := mismatch(got.Data, want.Data); i >= 0 {
				t.Fatalf("w %dx%d: element %d (column %d) is %#x, want %#x",
					in, out, i, i%in, math.Float64bits(got.Data[i]), math.Float64bits(want.Data[i]))
			}
		}
	})
}

// addRowVectorRowsMatchesScalar: the add map's vector bodies (4 and 8
// lanes) and its column tail are the scalar loop's bits and NaNs (one
// value in twelve is a NaN, so NaN meets NaN), for any row range, on every
// rung — as the bias add, as the column-sum reduction and as the residual
// add (AddTo, whole and cut at the same rows).
func addRowVectorRowsMatchesScalar(t *testing.T) {
	atEachTier(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(75)) // the same data on every rung
		const rows = 67
		cuts := []int{0, 1, 4, 5, 64, rows}
		value := func() float64 {
			if rng.Intn(12) == 0 {
				return math.Float64frombits(0x7ff8000000000000 | rng.Uint64()>>13)
			}
			return rng.NormFloat64()
		}
		for _, cols := range []int{1, 3, 4, 8, 12, 32, 33, 96} {
			src, bias := New(rows, cols), make([]float64, cols)
			for i := range src.Data {
				src.Data[i] = value()
			}
			for j := range bias {
				bias[j] = value()
			}
			want := src.Clone()
			for i := 0; i < rows; i++ {
				addScalar(want.Row(i), bias, 0, cols)
			}
			whole, pieces := src.Clone(), src.Clone()
			AddRowVectorRows(whole, bias, 0, rows)
			for i := 0; i+1 < len(cuts); i++ {
				AddRowVectorRows(pieces, bias, cuts[i], cuts[i+1])
			}
			if i := mismatch(whole.Data, want.Data); i >= 0 {
				t.Fatalf("cols=%d: element %d is %#x, want %#x", cols, i,
					math.Float64bits(whole.Data[i]), math.Float64bits(want.Data[i]))
			}
			if i := mismatch(pieces.Data, want.Data); i >= 0 {
				t.Fatalf("cols=%d: in pieces, element %d is %#x, want %#x", cols, i,
					math.Float64bits(pieces.Data[i]), math.Float64bits(want.Data[i]))
			}
			// The residual add of a row panel: src += other, whole and by
			// row ranges.
			other := New(rows, cols)
			for i := range other.Data {
				other.Data[i] = value()
			}
			sum := src.Clone()
			addScalar(sum.Data, other.Data, 0, rows*cols)
			whole, pieces = src.Clone(), src.Clone()
			AddTo(whole.Data, other.Data)
			for i := 0; i+1 < len(cuts); i++ {
				lo, hi := cuts[i]*cols, cuts[i+1]*cols
				AddTo(pieces.Data[lo:hi], other.Data[lo:hi])
			}
			if i := mismatch(whole.Data, sum.Data); i >= 0 {
				t.Fatalf("cols=%d: AddTo element %d is %#x, want %#x", cols, i,
					math.Float64bits(whole.Data[i]), math.Float64bits(sum.Data[i]))
			}
			if i := mismatch(pieces.Data, sum.Data); i >= 0 {
				t.Fatalf("cols=%d: AddTo in pieces, element %d is %#x, want %#x", cols, i,
					math.Float64bits(pieces.Data[i]), math.Float64bits(sum.Data[i]))
			}
			// The bias-gradient reduction, against its scalar loop: every
			// column sums its rows in ascending order, NaNs included.
			got, ref := make([]float64, cols), make([]float64, cols)
			ColSumsAcc(got, src, 1, rows)
			for i := 1; i < rows; i++ {
				for j, v := range src.Row(i) {
					ref[j] += v
				}
			}
			if j := mismatch(got, ref); j >= 0 {
				t.Fatalf("cols=%d: ColSumsAcc column %d is %#x, want %#x", cols, j,
					math.Float64bits(got[j]), math.Float64bits(ref[j]))
			}
		}
	})
}
