package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The kernels of the backward pass's O(rows·H) loops — the column
// accumulations (ColSumsAcc, LayerNormParamGradAcc), the span
// accumulation (SpanAcc) and the LayerNorm input gradient
// (LayerNormGradRows) — each held to its scalar definition, written out
// again below, under the contract mismatch checks on every rung.

// backwardWidths are the column counts every sweep runs: either side of
// one vector of each element type and of a four-vector pass.
var backwardWidths = []int{1, 3, 7, 8, 9, 32, 96}

// specialValue is one of ±0, ±Inf or a NaN with a random payload.
func specialValue[T float](rng *rand.Rand) T {
	switch rng.Intn(5) {
	case 0:
		return 0
	case 1:
		return T(math.Copysign(0, -1))
	case 2:
		return T(math.Inf(1))
	case 3:
		return T(math.Inf(-1))
	}
	return sweepValue[T](rng, 1)
}

// plant writes a few special values into v, one in every 'every' on
// average; every <= 0 plants none.
func plant[T float](rng *rand.Rand, v []T, every int) {
	if every <= 0 {
		return
	}
	for i := range v {
		if rng.Intn(every) == 0 {
			v[i] = specialValue[T](rng)
		}
	}
}

// lnParamScalar is LayerNorm.reduceBody's definition over rows [lo, hi),
// written out again: the gain gradient in acc[:cols], the shift gradient
// in acc[cols:].
func lnParamScalar(acc []float64, dy, xh *Matrix, lo, hi int) {
	c := dy.Cols
	dGain, dShift := acc[:c], acc[c:2*c]
	for i := lo; i < hi; i++ {
		x := xh.Row(i)
		for j, g := range dy.Row(i) {
			dGain[j] += float64(g * x[j])
			dShift[j] += g
		}
	}
}

// TestColumnAccumulationsMatchScalar holds ColSumsAcc and
// LayerNormParamGradAcc to their scalar definitions: rows 1…20 from an odd
// first row, every width of backwardWidths, finite inputs and inputs with
// ±0, ±Inf and NaN payloads planted, with NaN rows outside the range (a
// read of one would show). LayerNormParamGradAcc must do the chunk on
// exactly the SIMD rungs, and neither may write past the accumulator
// (guard words).
func TestColumnAccumulationsMatchScalar(t *testing.T) {
	const guard = 0x7ff4dead0000beef // a signalling NaN no sum produces
	atEachTier(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(42))
		for _, cols := range backwardWidths {
			for rows := 1; rows <= 20; rows++ {
				for _, every := range []int{0, 40, 7} {
					const lo = 3
					hi, total := lo+rows, lo+rows+2
					dy := &Matrix{Rows: total, Cols: cols, Data: sweepSlice[float64](rng, total*cols, 0)}
					xh := &Matrix{Rows: total, Cols: cols, Data: sweepSlice[float64](rng, total*cols, 0)}
					plant(rng, dy.Data[lo*cols:hi*cols], every)
					plant(rng, xh.Data[lo*cols:hi*cols], every)
					for _, m := range []*Matrix{dy, xh} {
						for i := range m.Data[:lo*cols] {
							m.Data[i] = math.NaN()
						}
						for i := range m.Data[hi*cols:] {
							m.Data[hi*cols+i] = math.NaN()
						}
					}
					what := fmt.Sprintf("cols %d rows %d plants 1/%d", cols, rows, every)

					// ColSumsAcc: the whole body is in this package.
					buf := make([]float64, cols+2)
					buf[0], buf[cols+1] = math.Float64frombits(guard), math.Float64frombits(guard)
					got := buf[1 : cols+1]
					copy(got, sweepSlice[float64](rng, cols, 0))
					want := append([]float64(nil), got...)
					for i := lo; i < hi; i++ {
						addScalar(want, dy.Row(i), 0, cols)
					}
					ColSumsAcc(got, dy, lo, hi)
					if j := mismatch(got, want); j >= 0 {
						t.Fatalf("ColSumsAcc %s: column %d is %#x, want %#x", what, j, bitsOf(got[j]), bitsOf(want[j]))
					}
					if bitsOf(buf[0]) != guard || bitsOf(buf[cols+1]) != guard {
						t.Fatalf("ColSumsAcc %s: wrote past the accumulator", what)
					}

					// LayerNormParamGradAcc: the kernel, or on the go rung the
					// caller's loop.
					buf = make([]float64, 2*cols+2)
					buf[0], buf[2*cols+1] = math.Float64frombits(guard), math.Float64frombits(guard)
					acc := buf[1 : 2*cols+1]
					copy(acc, sweepSlice[float64](rng, 2*cols, 0))
					wantAcc := append([]float64(nil), acc...)
					lnParamScalar(wantAcc, dy, xh, lo, hi)
					did := LayerNormParamGradAcc(acc, dy, xh, lo, hi)
					if did != (tier >= tierAVX2) {
						t.Fatalf("LayerNormParamGradAcc %s on %v: did the chunk: %v", what, tier, did)
					}
					if !did {
						lnParamScalar(acc, dy, xh, lo, hi)
					}
					if j := mismatch(acc, wantAcc); j >= 0 {
						t.Fatalf("LayerNormParamGradAcc %s: element %d is %#x, want %#x", what, j, bitsOf(acc[j]), bitsOf(wantAcc[j]))
					}
					if bitsOf(buf[0]) != guard || bitsOf(buf[2*cols+1]) != guard {
						t.Fatalf("LayerNormParamGradAcc %s: wrote past the accumulator", what)
					}
				}
			}
		}
	})
}

// spanScalar is SpanAcc's definition, written out again.
func spanScalar[T float](dst, src []T, stride, base int, idx []int, n int, scale []float64) {
	w := len(dst)
	for k := 0; k < n; k++ {
		r := base + k
		if idx != nil {
			r = base + idx[k]
		}
		row := src[r*stride : r*stride+w]
		if scale == nil {
			for j, v := range row {
				dst[j] += v
			}
			continue
		}
		s := T(scale[k])
		for j, v := range row {
			dst[j] += T(s * v)
		}
	}
}

func TestSpanAccMatchesScalar(t *testing.T) {
	t.Run("float64", func(t *testing.T) { testSpanAcc[float64](t) })
	t.Run("float32", func(t *testing.T) { testSpanAcc[float32](t) })
}

// testSpanAcc holds SpanAcc to its scalar definition for one element type:
// every width of backwardWidths, spans of 0…13 terms from an odd base row,
// rows stored alone (stride w) or as the middle third of wider rows
// (stride 3w, as the edge-input gradient's sender third), contiguous or
// indexed, with a scale or without, finite and with ±0, ±Inf and NaN
// payloads planted in src, scale and dst. SpanAcc must do the span on
// exactly the SIMD rungs (and an empty one on every rung), write nothing
// outside dst (guard words), and do nothing where an index leaves src.
func testSpanAcc[T float](t *testing.T) {
	atEachTier(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(43))
		guard := T(math.Float64frombits(0x7ff4dead0000beef))
		for _, w := range backwardWidths {
			for _, third := range []bool{false, true} {
				stride, off := w, 0
				if third {
					stride, off = 3*w, w
				}
				const base, nrows = 5, 24
				for n := 0; n <= 13; n++ {
					for _, every := range []int{0, 30, 6} {
						for _, indexed := range []bool{false, true} {
							for _, scaled := range []bool{false, true} {
								src := sweepSlice[T](rng, (base+nrows)*stride, 0)
								plant(rng, src, every)
								var idx []int
								if indexed {
									idx = make([]int, n)
									for k := range idx {
										idx[k] = rng.Intn(nrows)
									}
								}
								var scale []float64
								if scaled {
									scale = make([]float64, n)
									for k := range scale {
										scale[k] = 1 / float64(1+rng.Intn(9))
									}
									plant(rng, scale, 3*every)
								}
								buf := sweepSlice[T](rng, w+2, 0)
								buf[0], buf[w+1] = guard, guard
								dst := buf[1 : w+1]
								plant(rng, dst, 2*every)
								entry := append([]T(nil), dst...)
								want := append([]T(nil), dst...)
								spanScalar(want, src[off:], stride, base, idx, n, scale)

								what := fmt.Sprintf("w %d stride %d n %d indexed %v scaled %v plants 1/%d", w, stride, n, indexed, scaled, every)
								did := SpanAcc(dst, src[off:], stride, base, idx, n, scale)
								if did != (n == 0 || tier >= tierAVX2) {
									t.Fatalf("%s on %v: did the span: %v", what, tier, did)
								}
								if !did {
									spanScalar(dst, src[off:], stride, base, idx, n, scale)
								}
								if j := mismatch(dst, want); j >= 0 {
									t.Fatalf("%s: column %d is %#x, want %#x", what, j, bitsOf(dst[j]), bitsOf(want[j]))
								}
								if bitsOf(buf[0]) != bitsOf(guard) || bitsOf(buf[w+1]) != bitsOf(guard) {
									t.Fatalf("%s: wrote outside dst", what)
								}
								if indexed && n > 0 {
									// An index past src's rows: nothing is done.
									bad := append([]int(nil), idx...)
									bad[rng.Intn(n)] = nrows + rng.Intn(3)*1000
									copy(dst, entry)
									if SpanAcc(dst, src[off:], stride, base, bad, n, scale) {
										t.Fatalf("%s: did a span over an index outside src", what)
									}
									if j := bitsEqual(dst, entry); j >= 0 {
										t.Fatalf("%s: wrote column %d over an index outside src", what, j)
									}
								}
							}
						}
					}
				}
			}
		}
	})
}

// lnGradOneRow64 is the float64 LayerNorm input gradient's scalar
// definition written out again, sharing no code with internal/nn: row out
// from dy, the forward's xh and inv, and the gain.
func lnGradOneRow64(out, dy, xh, gain []float64, inv float64) {
	var sum1, sum2 float64
	for j := 0; j < len(dy); j++ {
		d := float64(dy[j] * gain[j])
		sum1 = sum1 + d
		sum2 = sum2 + float64(d*xh[j])
	}
	n := float64(len(dy))
	scale := inv / n
	for j := 0; j < len(dy); j++ {
		d := float64(dy[j] * gain[j])
		out[j] = scale * (float64(n*d) - sum1 - float64(xh[j]*sum2))
	}
}

// TestLayerNormGradRowsMatchesOneRow holds LayerNormGradRows to the one-row
// definition under the contract mismatch checks, on every rung: rows 1…40
// (zero to five groups of eight and every remainder) from an odd first
// row, every width of backwardWidths, each case with one plant: none, a
// row of ±0, a gradient so large that n·d overflows (∞ − ∞ inside the
// second pass), a NaN or an infinity in dy, a NaN in the gain or xhat, an
// infinite invStd. The call must do exactly the whole groups the rung
// allows — all of them on avx512, none elsewhere — and write nothing else;
// finished as internal/nn finishes it, every row must be the
// definition's.
func TestLayerNormGradRowsMatchesOneRow(t *testing.T) {
	negZero := math.Copysign(0, -1)
	plants := []string{"", "zeros", "overflow", "NaN", "Inf", "NaN gain", "NaN xhat", "Inf invStd"}
	atEachTier(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(65))
		for _, cols := range backwardWidths {
			for rows := 1; rows <= 40; rows++ {
				what := plants[(rows+cols)%len(plants)]
				const lo = 3
				hi, total := lo+rows, lo+rows+2
				dy := &Matrix{Rows: total, Cols: cols, Data: sweepSlice[float64](rng, total*cols, 0)}
				xh := &Matrix{Rows: total, Cols: cols, Data: sweepSlice[float64](rng, total*cols, 0)}
				gain := sweepSlice[float64](rng, cols, 0)
				inv := make([]float64, total)
				for i := range inv {
					inv[i] = 0.5 + rng.Float64()
				}
				victim := lo + rng.Intn(rows)
				vrow := dy.Row(victim)
				switch what {
				case "zeros":
					for j := range vrow {
						vrow[j] = []float64{0, negZero}[rng.Intn(2)]
					}
				case "overflow":
					for j := range vrow {
						vrow[j] = math.Copysign(1e307, vrow[j])
					}
				case "NaN":
					vrow[rng.Intn(cols)] = sweepValue[float64](rng, 1)
				case "Inf":
					vrow[rng.Intn(cols)] = math.Inf(1 - 2*rng.Intn(2))
				case "NaN gain":
					gain[rng.Intn(cols)] = sweepValue[float64](rng, 1)
				case "NaN xhat":
					xh.Row(victim)[rng.Intn(cols)] = sweepValue[float64](rng, 1)
				case "Inf invStd":
					inv[victim] = math.Inf(1)
				}
				want := New(total, cols)
				for i := lo; i < hi; i++ {
					lnGradOneRow64(want.Row(i), dy.Row(i), xh.Row(i), gain, inv[i])
				}
				wantDone := lo
				if tier == tierAVX512 {
					wantDone += (hi - lo) &^ 7
				}
				name := fmt.Sprintf("cols %d rows %d plant %q", cols, rows, what)

				got := New(total, cols)
				for i := range got.Data {
					got.Data[i] = math.Float64frombits(0x7ff4dead0000beef)
				}
				sentinel := append([]float64(nil), got.Data...)
				done := LayerNormGradRows(got, dy, xh, inv, gain, lo, hi)
				if done != wantDone {
					t.Fatalf("%s: did rows [%d, %d), want [%d, %d)", name, lo, done, lo, wantDone)
				}
				if j := bitsEqual(got.Data[:lo*cols], sentinel[:lo*cols]); j >= 0 {
					t.Fatalf("%s: wrote element %d before lo", name, j)
				}
				if j := bitsEqual(got.Data[done*cols:], sentinel[done*cols:]); j >= 0 {
					t.Fatalf("%s: wrote element %d past the rows it did", name, done*cols+j)
				}
				// Finish as internal/nn does: the rest by the definition.
				for i := done; i < hi; i++ {
					lnGradOneRow64(got.Row(i), dy.Row(i), xh.Row(i), gain, inv[i])
				}
				if j := bitsEqual(got.Data[hi*cols:], sentinel[hi*cols:]); j >= 0 {
					t.Fatalf("%s: wrote element %d past hi", name, hi*cols+j)
				}
				for i := lo; i < hi; i++ {
					if j := mismatch(got.Row(i), want.Row(i)); j >= 0 {
						t.Fatalf("%s: row %d (victim %d) column %d is %#x, want %#x",
							name, i, victim, j, bitsOf(got.Row(i)[j]), bitsOf(want.Row(i)[j]))
					}
				}
			}
		}
	})
}

// eachRung runs a benchmark body on every rung, named width/rung; a rung
// the CPU lacks is skipped by name.
func eachRung(b *testing.B, width int, body func(b *testing.B)) {
	for r := tierAVX512; r >= tierGo; r-- {
		b.Run(fmt.Sprintf("%d/%v", width, r), func(b *testing.B) {
			if r > cpuTier {
				b.Skipf("rung %v not run: this CPU's top rung is %v", r, cpuTier)
			}
			defer setKernelTier(setKernelTier(r))
			body(b)
		})
	}
}

// BenchmarkColSumsAcc times a bias-gradient chunk (256 rows, ReduceGrain's
// chunk at these widths) per rung at SmallConfig's width (8) and
// LargeConfig's (32), in ns per row.
func BenchmarkColSumsAcc(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	const rows = 256
	for _, cols := range []int{8, 32} {
		m, acc := randomMatrix(rng, rows, cols), make([]float64, cols)
		eachRung(b, cols, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ColSumsAcc(acc, m, 0, rows)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows, "ns/row")
		})
	}
}

// BenchmarkLayerNormParamGradAcc times the LayerNorm gain/shift gradient
// chunk (256 rows) the same way, by the definition where a rung leaves it.
func BenchmarkLayerNormParamGradAcc(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	const rows = 256
	for _, cols := range []int{8, 32} {
		dy, xh, acc := randomMatrix(rng, rows, cols), randomMatrix(rng, rows, cols), make([]float64, 2*cols)
		eachRung(b, cols, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if !LayerNormParamGradAcc(acc, dy, xh, 0, rows) {
					lnParamScalar(acc, dy, xh, 0, rows)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows, "ns/row")
		})
	}
}

// BenchmarkLayerNormGradRows times the LayerNorm input gradient of a
// 64-row panel per rung, the rows a rung leaves done by the definition.
func BenchmarkLayerNormGradRows(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	const rows = 64
	for _, cols := range []int{8, 32} {
		dy, xh, dx := randomMatrix(rng, rows, cols), randomMatrix(rng, rows, cols), New(rows, cols)
		gain, inv := randomMatrix(rng, 1, cols).Data, make([]float64, rows)
		for i := range inv {
			inv[i] = 1
		}
		eachRung(b, cols, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for k := LayerNormGradRows(dx, dy, xh, inv, gain, 0, rows); k < rows; k++ {
					lnGradOneRow64(dx.Row(k), dy.Row(k), xh.Row(k), gain, inv[k])
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows, "ns/row")
		})
	}
}

// BenchmarkSpanAcc times the aggregation of one receiver row per rung and
// element type: a span of 13 edge rows (the 4×4×4 p = 2 box's mean
// in-degree rounded up) through an index, scaled, in ns per row.
func BenchmarkSpanAcc(b *testing.B) {
	b.Run("float64", func(b *testing.B) { benchSpanAcc[float64](b) })
	b.Run("float32", func(b *testing.B) { benchSpanAcc[float32](b) })
}

func benchSpanAcc[T float](b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	const n, nrows = 13, 512
	for _, w := range []int{8, 32} {
		src, dst := sweepSlice[T](rng, nrows*w, 0), make([]T, w)
		idx, scale := make([]int, n), make([]float64, n)
		for k := range idx {
			idx[k], scale[k] = rng.Intn(nrows), 1/float64(n)
		}
		eachRung(b, w, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				clear(dst)
				if !SpanAcc(dst, src, w, 0, idx, n, scale) {
					spanScalar(dst, src, w, 0, idx, n, scale)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/row")
		})
	}
}
