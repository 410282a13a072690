package tensor

import "fmt"

// Matrix32 is the dense row-major float32 twin of Matrix, used by the
// forward-only serving engine: parameters and activations down-convert
// once at compile time, halving memory traffic on the GEMM-bound serving
// path. The float64 Matrix remains the training/oracle representation —
// Matrix32 deliberately has no gradient-side kernels.
type Matrix32 struct {
	Rows, Cols int
	Data       []float32
}

// New32 returns a zero-initialized rows×cols float32 matrix.
func New32(rows, cols int) *Matrix32 {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix32{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// At returns the element at row i, column j.
func (m *Matrix32) At(i, j int) float32 { return m.Data[i*m.Cols+j] }

// Set stores v at row i, column j.
func (m *Matrix32) Set(i, j int, v float32) { m.Data[i*m.Cols+j] = v }

// Row returns the i-th row as a slice aliasing the matrix storage.
func (m *Matrix32) Row(i int) []float32 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Zero sets every entry of m to zero.
func (m *Matrix32) Zero() { clear(m.Data) }

// SliceRows points dst at rows [r0, r1) of m, like Matrix.SliceRows.
func (m *Matrix32) SliceRows(dst *Matrix32, r0, r1 int) {
	if r0 < 0 || r1 < r0 || r1 > m.Rows {
		panic(fmt.Sprintf("tensor: SliceRows [%d,%d) outside 0..%d", r0, r1, m.Rows))
	}
	dst.Rows = r1 - r0
	dst.Cols = m.Cols
	dst.Data = m.Data[r0*m.Cols : r1*m.Cols : r1*m.Cols]
}

// String renders the shape for debugging.
func (m *Matrix32) String() string { return fmt.Sprintf("Matrix32(%dx%d)", m.Rows, m.Cols) }

// Demote32 returns the float32 down-conversion of a float64 matrix — the
// compile-time step of the serving twin.
func Demote32(m *Matrix) *Matrix32 {
	out := New32(m.Rows, m.Cols)
	for i, v := range m.Data {
		out.Data[i] = float32(v)
	}
	return out
}

// DemoteInto32 down-converts src into dst (shapes must match): the
// workspace-reuse form for per-call input conversion.
func DemoteInto32(dst *Matrix32, src *Matrix) {
	if dst.Rows != src.Rows || dst.Cols != src.Cols {
		panic(fmt.Sprintf("tensor: DemoteInto32 shape mismatch %dx%d vs %dx%d",
			dst.Rows, dst.Cols, src.Rows, src.Cols))
	}
	for i, v := range src.Data {
		dst.Data[i] = float32(v)
	}
}

// PromoteInto64 up-converts src into dst (shapes must match): the output
// side of the serving twin, and the staging step for the float64-typed
// halo transport.
func PromoteInto64(dst *Matrix, src *Matrix32) {
	if dst.Rows != src.Rows || dst.Cols != src.Cols {
		panic(fmt.Sprintf("tensor: PromoteInto64 shape mismatch %dx%d vs %dx%d",
			dst.Rows, dst.Cols, src.Rows, src.Cols))
	}
	for i, v := range src.Data {
		dst.Data[i] = float64(v)
	}
}

// MaxRelDiff64 returns the maximum element-wise relative difference
// |m32 - m64| / (1 + |m64|) against a float64 oracle of the same shape —
// the tolerance-gate metric for the serving twin.
func (m *Matrix32) MaxRelDiff64(oracle *Matrix) float64 {
	if m.Rows != oracle.Rows || m.Cols != oracle.Cols {
		panic("tensor: MaxRelDiff64 shape mismatch")
	}
	var worst float64
	for i, v := range oracle.Data {
		d := float64(m.Data[i]) - v
		if d < 0 {
			d = -d
		}
		av := v
		if av < 0 {
			av = -av
		}
		if r := d / (1 + av); r > worst {
			worst = r
		}
	}
	return worst
}
