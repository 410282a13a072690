// Package tensor provides dense row-major float64 matrices and the small
// set of BLAS-like kernels needed by the neural-network and GNN layers.
//
// The package is deliberately minimal: the distributed-GNN workload only
// requires GEMM (with transpose variants), the edge-row gathers, and a few
// element-wise maps and reductions. Everything is written against
// contiguous []float64 storage so the kernels vectorize well and can be
// benchmarked in isolation.
package tensor

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix. The zero value is an empty matrix.
type Matrix struct {
	Rows, Cols int
	// Data holds the entries in row-major order; len(Data) == Rows*Cols.
	Data []float64
}

// New returns a zero-initialized rows×cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromSlice wraps data (without copying) as a rows×cols matrix.
func FromSlice(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: FromSlice length %d != %d*%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set stores v at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns the i-th row as a slice aliasing the matrix storage.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Zero sets every entry of m to zero.
func (m *Matrix) Zero() { clear(m.Data) }

// SliceRows points dst at rows [r0, r1) of m: dst's header is rewritten
// to alias the row block's storage (row-major rows are contiguous, so a
// row block is a plain sub-slice — no copy, no allocation). Writing
// through dst writes m. Reusing one persistent header across calls keeps
// row-block iteration allocation-free; the batched inference engine
// addresses per-sample blocks of its stacked matrices this way.
func (m *Matrix) SliceRows(dst *Matrix, r0, r1 int) {
	if r0 < 0 || r1 < r0 || r1 > m.Rows {
		panic(fmt.Sprintf("tensor: SliceRows [%d,%d) outside 0..%d", r0, r1, m.Rows))
	}
	dst.Rows = r1 - r0
	dst.Cols = m.Cols
	dst.Data = m.Data[r0*m.Cols : r1*m.Cols : r1*m.Cols]
}

// RowBlock returns a fresh header aliasing rows [r0, r1) of m (SliceRows
// into a new Matrix). The block shares m's storage.
func (m *Matrix) RowBlock(r0, r1 int) *Matrix {
	out := &Matrix{}
	m.SliceRows(out, r0, r1)
	return out
}

// Resize reshapes m to rows×cols over its own storage, which only ever
// grows: a shape that fits the capacity views its prefix (contents kept),
// a larger one reallocates zeroed. A persistent buffer sized this way
// settles at the largest shape it has been asked for, and every later
// change of shape — the serving engine's batch size — allocates nothing.
func (m *Matrix) Resize(rows, cols int) {
	if n := rows * cols; cap(m.Data) < n {
		m.Data = make([]float64, n)
	} else {
		m.Data = m.Data[:n]
	}
	m.Rows, m.Cols = rows, cols
}

// CopyFrom copies src into m; dimensions must match.
func (m *Matrix) CopyFrom(src *Matrix) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic(fmt.Sprintf("tensor: CopyFrom shape mismatch %dx%d vs %dx%d",
			m.Rows, m.Cols, src.Rows, src.Cols))
	}
	copy(m.Data, src.Data)
}

// TransposeInto writes srcᵀ into dst, which must be src.Cols×src.Rows and
// must not alias src.
func TransposeInto(dst, src *Matrix) {
	if dst.Rows != src.Cols || dst.Cols != src.Rows {
		panic(fmt.Sprintf("tensor: TransposeInto shape %dx%d, want %dx%d",
			dst.Rows, dst.Cols, src.Cols, src.Rows))
	}
	for i := 0; i < src.Rows; i++ {
		for j, v := range src.Row(i) {
			dst.Data[j*dst.Cols+i] = v
		}
	}
}

// Equal reports whether m and other have identical shape and entries.
func (m *Matrix) Equal(other *Matrix) bool {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		return false
	}
	for i, v := range m.Data {
		if other.Data[i] != v {
			return false
		}
	}
	return true
}

// MaxAbsDiff returns the maximum of AbsDiff over the element pairs of m
// and other, which must have the same shape: +Inf if a NaN meets a number.
func (m *Matrix) MaxAbsDiff(other *Matrix) float64 {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		panic("tensor: MaxAbsDiff shape mismatch")
	}
	var max float64
	for i, v := range m.Data {
		if d := AbsDiff(v, other.Data[i]); d > max {
			max = d
		}
	}
	return max
}

// AbsDiff is the distance every comparison of outputs reports for one
// pair of entries: 0 when v == w or both are NaN, |v − w| otherwise, and
// +Inf where that difference is NaN. A NaN against a number is then the
// largest difference there is, where a plain |v − w| > max test would
// skip it.
func AbsDiff(v, w float64) float64 {
	if v == w || v != v && w != w {
		return 0
	}
	if d := math.Abs(v - w); d == d {
		return d
	}
	return math.Inf(1)
}

// String renders small matrices for debugging.
func (m *Matrix) String() string {
	return fmt.Sprintf("Matrix(%dx%d)", m.Rows, m.Cols)
}
