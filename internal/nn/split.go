package nn

import (
	"fmt"

	"meshgnn/internal/tensor"
)

// SplitLinear is a block's first Linear, y = x·W + b, over an input that is
// the concatenation of equal-width parts, x = (x_0 ‖ … ‖ x_{n−1}). Being
// linear, the layer is the sum of its parts' products,
//
//	x·W + b = x_0·W_0 + … + x_{n−1}·W_{n−1} + b,
//
// W_i the row block of W that multiplies x_i, so a caller whose parts are
// rows of smaller matrices (the message-passing layer's x_i and x_j are
// node rows, one per node, repeated over that node's edges) can multiply
// each part once where it lives and add the products per row. The sum is
// x·W + b in exact arithmetic; rounded, it is grouped differently. A
// SplitLinear holds views of the layer's parameters, never copies.
type SplitLinear[T elem] struct {
	w, b       []T
	width, out int
}

func splitLinear[T elem](w, b []T, in, out, parts int) SplitLinear[T] {
	if parts <= 0 || in%parts != 0 {
		panic(fmt.Sprintf("nn: a %d-wide input does not split into %d equal parts", in, parts))
	}
	return SplitLinear[T]{w: w, b: b, width: in / parts, out: out}
}

// Valid reports whether s is a layer, not the zero value.
func (s SplitLinear[T]) Valid() bool { return s.w != nil }

// MulRows writes rows rows of dst = x·W_part, plus the bias where bias is
// set: x is rows × the part width and dst rows × Out, both row-major. It
// is the linear layer's own kernel (tensor.MatMulBiasRows, or
// MatMul32BiasRows in float32) on a row-block view of W, so its bits are
// those of the product's one definition at the part's width.
func (s SplitLinear[T]) MulRows(dst, x []T, rows, part int, bias bool) {
	wp := s.w[part*s.width*s.out : (part+1)*s.width*s.out]
	var b []T
	if bias {
		b = s.b
	}
	switch d := any(dst).(type) {
	case []float64:
		dm := tensor.Matrix{Rows: rows, Cols: s.out, Data: d}
		xm := tensor.Matrix{Rows: rows, Cols: s.width, Data: any(x).([]float64)}
		wm := tensor.Matrix{Rows: s.width, Cols: s.out, Data: any(wp).([]float64)}
		tensor.MatMulBiasRows(&dm, &xm, &wm, any(b).([]float64), 0, rows)
	case []float32:
		dm := tensor.Matrix32{Rows: rows, Cols: s.out, Data: d}
		xm := tensor.Matrix32{Rows: rows, Cols: s.width, Data: any(x).([]float32)}
		wm := tensor.Matrix32{Rows: s.width, Cols: s.out, Data: any(wp).([]float32)}
		tensor.MatMul32BiasRows(&dm, &xm, &wm, any(b).([]float32), 0, rows)
	}
}
