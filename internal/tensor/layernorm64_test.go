package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// lnOneRow64 is the float64 LayerNorm's scalar definition written out
// again, sharing no code with internal/nn: out, xh and the returned inv of
// one row.
func lnOneRow64(out, xh, row, gain, shift []float64, eps float64) (inv float64) {
	var sum float64
	for j := 0; j < len(row); j++ {
		sum = sum + row[j]
	}
	mean := sum / float64(len(row))
	var sq float64
	for j := 0; j < len(row); j++ {
		dev := row[j] - mean
		sq = sq + float64(dev*dev)
	}
	inv = 1 / math.Sqrt(sq/float64(len(row))+eps)
	for j := 0; j < len(row); j++ {
		hat := (row[j] - mean) * inv
		xh[j] = hat
		out[j] = float64(hat*gain[j]) + shift[j]
	}
	return inv
}

// TestLayerNormRowsMatchesOneRow holds LayerNormRows to the one-row scalar
// definition under the contract mismatch checks, on every rung: rows 1…70
// (zero to eight groups of eight and every remainder) from a row offset
// that is not a multiple of 8, widths either side of the kernel's 8-column
// blocks, in place and out of place, with the xhat and invStd caches and
// without. Each case plants one of: rows whose sum is all cancellation, a
// row of ±0, of huge values (the sum overflows), of values whose squares
// overflow, of subnormals, a NaN, an infinity, or a NaN in gain or shift.
// The call must do exactly the whole groups the rung allows — all of them
// on avx512, none on another rung — and write nothing else: not outside
// [lo, hi), and not in the rows it leaves. The range is then finished as
// internal/nn finishes it, by the scalar definition.
func TestLayerNormRowsMatchesOneRow(t *testing.T) {
	const eps = 1e-5
	negZero := math.Copysign(0, -1)
	plants := []string{"", "cancel", "zeros", "huge", "squares", "tiny", "NaN", "Inf", "NaN gain", "NaN shift"}
	atEachTier(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(64))
		for _, cols := range []int{1, 3, 7, 8, 9, 16, 32, 33, 96} {
			for rows := 1; rows <= 70; rows++ {
				plant := plants[(rows+cols)%len(plants)]
				const lo = 3
				hi, total := lo+rows, lo+rows+2
				src := &Matrix{Rows: total, Cols: cols, Data: sweepSlice[float64](rng, total*cols, 0)}
				gain, shift := sweepSlice[float64](rng, cols, 0), sweepSlice[float64](rng, cols, 0)
				victim := lo + rng.Intn(rows)
				vrow := src.Row(victim)
				switch plant {
				case "cancel":
					// Values across thirty decades and their negatives in
					// another order: the exact sum is zero, the computed one
					// is what the roundings leave, so any other order of the
					// adds shows in the output — with no shift to absorb it.
					clear(shift)
					for i := lo; i < hi; i++ {
						row, half := src.Row(i), cols/2
						for j := 0; j < half; j++ {
							row[j] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(31)-15))
						}
						for j, k := range rng.Perm(half) {
							row[half+j] = -row[k]
						}
					}
				case "zeros":
					for j := range vrow {
						vrow[j] = []float64{0, negZero}[rng.Intn(2)]
					}
				case "huge":
					for j := range vrow {
						vrow[j] = math.Copysign(math.MaxFloat64, vrow[j])
					}
				case "squares":
					for j := range vrow {
						vrow[j] *= 1e160
					}
				case "tiny":
					for j := range vrow {
						vrow[j] *= 1e-310
					}
				case "NaN":
					vrow[rng.Intn(cols)] = sweepValue[float64](rng, 1)
				case "Inf":
					vrow[rng.Intn(cols)] = math.Inf(1 - 2*rng.Intn(2))
				case "NaN gain":
					gain[rng.Intn(cols)] = sweepValue[float64](rng, 1)
				case "NaN shift":
					shift[rng.Intn(cols)] = sweepValue[float64](rng, 1)
				}
				want, wantXh := New(total, cols), New(total, cols)
				wantInv := make([]float64, total)
				copy(want.Data, src.Data)
				for i := lo; i < hi; i++ {
					wantInv[i] = lnOneRow64(want.Row(i), wantXh.Row(i), src.Row(i), gain, shift, eps)
				}

				// The rows the call must do: every whole group on avx512,
				// none elsewhere.
				wantDone := lo
				if tier == tierAVX512 {
					wantDone += (hi - lo) &^ 7
				}

				for _, inPlace := range []bool{false, true} {
					for _, caches := range []bool{true, false} {
						what := fmt.Sprintf("rows=%d cols=%d %q in place=%v caches=%v", rows, cols, plant, inPlace, caches)
						in := &Matrix{Rows: total, Cols: cols, Data: append([]float64(nil), src.Data...)}
						got := in
						if !inPlace {
							got = &Matrix{Rows: total, Cols: cols, Data: append([]float64(nil), src.Data...)}
						}
						var xh *Matrix
						var inv []float64
						if caches {
							xh = New(total, cols)
							inv = make([]float64, total)
						}
						done := LayerNormRows(got, xh, inv, in, gain, shift, eps, lo, hi)
						if done != wantDone {
							t.Fatalf("%s: did rows [%d, %d), want [%d, %d)", what, lo, done, lo, wantDone)
						}
						// Nothing past done was touched: the rows are still
						// the input, the caches still zero.
						if i := bitsEqual(got.Data[done*cols:], src.Data[done*cols:]); i >= 0 {
							t.Fatalf("%s: wrote element %d past the rows it did", what, done*cols+i)
						}
						if i := bitsEqual(got.Data[:lo*cols], src.Data[:lo*cols]); i >= 0 {
							t.Fatalf("%s: wrote element %d before lo", what, i)
						}
						if caches {
							for i, v := range xh.Data {
								if r := i / cols; (r < lo || r >= done) && v != 0 {
									t.Fatalf("%s: xhat element %d (row %d) written outside [%d, %d)", what, i, r, lo, done)
								}
							}
							for r, v := range inv {
								if (r < lo || r >= done) && v != 0 {
									t.Fatalf("%s: invStd[%d] written outside [%d, %d)", what, r, lo, done)
								}
							}
						}

						// Finish the range as internal/nn does: the scalar
						// definition for the rows the kernel left.
						scratch := make([]float64, cols)
						for i := done; i < hi; i++ {
							xr := scratch
							if caches {
								xr = xh.Row(i)
							}
							ir := lnOneRow64(got.Row(i), xr, in.Row(i), gain, shift, eps)
							if caches {
								inv[i] = ir
							}
						}
						if i := bitsEqual(got.Data[hi*cols:], src.Data[hi*cols:]); i >= 0 {
							t.Fatalf("%s: wrote element %d past hi", what, hi*cols+i)
						}
						for i := lo; i < hi; i++ {
							if j := mismatch(got.Row(i), want.Row(i)); j >= 0 {
								t.Fatalf("%s: row %d (victim %d) column %d is %#x, want %#x", what, i, victim, j, bitsOf(got.Row(i)[j]), bitsOf(want.Row(i)[j]))
							}
							if !caches {
								continue
							}
							if j := mismatch(xh.Row(i), wantXh.Row(i)); j >= 0 {
								t.Fatalf("%s: xhat row %d column %d is %#x, want %#x", what, i, j, bitsOf(xh.Row(i)[j]), bitsOf(wantXh.Row(i)[j]))
							}
						}
						if caches {
							if i := mismatch(inv[lo:hi], wantInv[lo:hi]); i >= 0 {
								t.Fatalf("%s: invStd[%d] is %#x, want %#x", what, lo+i, bitsOf(inv[lo+i]), bitsOf(wantInv[lo+i]))
							}
						}
					}
				}
			}
		}
	})
}

// BenchmarkLayerNormRows times the float64 LayerNorm forward per rung on a
// 64-row panel at SmallConfig's width (8) and LargeConfig's (32): the
// kernel's groups and, for the rows it leaves (all of them below avx512),
// the one-row scalar definition above.
func BenchmarkLayerNormRows(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	const rows = 64
	for _, cols := range []int{8, 32} {
		x, y, xh := randomMatrix(rng, rows, cols), New(rows, cols), New(rows, cols)
		inv := make([]float64, rows)
		gain, shift := randomMatrix(rng, 1, cols).Data, randomMatrix(rng, 1, cols).Data
		for r := tierAVX512; r >= tierGo; r-- {
			b.Run(fmt.Sprintf("%d/%v", cols, r), func(b *testing.B) {
				if r > cpuTier {
					b.Skipf("rung %v not run: this CPU's top rung is %v", r, cpuTier)
				}
				defer setKernelTier(setKernelTier(r))
				for i := 0; i < b.N; i++ {
					for k := LayerNormRows(y, xh, inv, x, gain, shift, 1e-5, 0, rows); k < rows; k++ {
						inv[k] = lnOneRow64(y.Row(k), xh.Row(k), x.Row(k), gain, shift, 1e-5)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows, "ns/row")
			})
		}
	}
}
