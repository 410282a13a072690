package gnn

import (
	"math"

	"meshgnn/internal/tensor"
)

// Metrics summarizes a prediction against a target with globally
// consistent statistics: every value is AllReduced with the same
// degree-weighted counting as the consistent loss, so all ranks return
// identical numbers equal to the unpartitioned evaluation.
type Metrics struct {
	// MSE is the consistent mean squared error (paper Eq. 6).
	MSE float64
	// MAE is the degree-weighted mean absolute error.
	MAE float64
	// MaxAbs is the largest absolute nodal error anywhere in the domain.
	MaxAbs float64
	// RelL2 is ||y - ŷ|| / ||ŷ|| under the degree-weighted metric.
	RelL2 float64
}

// Evaluate computes consistent error metrics collectively.
func Evaluate(rc *RankContext, y, target *tensor.Matrix) Metrics {
	if y.Rows != target.Rows || y.Cols != target.Cols {
		panic("gnn: Evaluate shape mismatch")
	}
	var sq, abssum, refsq, maxabs float64
	for i := 0; i < y.Rows; i++ {
		inv := 1 / rc.Graph.NodeDegree[i]
		yr, tr := y.Row(i), target.Row(i)
		for j := range yr {
			d := yr[j] - tr[j]
			sq += float64(inv * d * d)
			abssum += float64(inv * math.Abs(d))
			refsq += float64(inv * tr[j] * tr[j])
			if a := math.Abs(d); a > maxabs {
				maxabs = a
			}
		}
	}
	sums := []float64{sq, abssum, refsq}
	rc.Comm.AllReduceSum(sums)
	maxbuf := []float64{maxabs}
	rc.Comm.AllReduceMax(maxbuf)
	n := rc.Neff * float64(y.Cols)
	m := Metrics{
		MSE:    sums[0] / n,
		MAE:    sums[1] / n,
		MaxAbs: maxbuf[0],
	}
	if sums[2] > 0 {
		m.RelL2 = math.Sqrt(sums[0] / sums[2])
	}
	return m
}
