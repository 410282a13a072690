package nn

import (
	"math"
	"testing"

	"meshgnn/internal/tensor"
)

func BenchmarkELU32(b *testing.B) {
	const n = 1 << 20
	x := tensor.New32(1024, n/1024)
	for i := range x.Data {
		x.Data[i] = float32(math.Sin(float64(i))) * 2
	}
	y := tensor.New32(1024, n/1024)
	b.SetBytes(n * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		elu32{}.inferRows(panel[float32]{y.Rows, y.Cols, y.Data}, panel[float32]{x.Rows, x.Cols, x.Data})
	}
}
