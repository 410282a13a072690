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
// again below, bit for bit on every rung.

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

// firstNaN returns the first index of v holding a NaN, len(v) for none.
func firstNaN[T float](v []T) int {
	for i, x := range v {
		if x != x {
			return i
		}
	}
	return len(v)
}

// passDone is where a column kernel of pass width pw (0: no kernel) must
// stop over a result whose first NaN column is nan: the start of the pass
// holding it.
func passDone(pw, nan, cols int) int {
	if pw == 0 {
		return 0
	}
	if nan >= cols {
		return cols
	}
	return nan / pw * pw
}

// colPass is the column-accumulate kernels' pass width (float64 columns).
func colPass() int { return [...]int{tierGo: 0, tierAVX2: 16, tierAVX512: 32}[tier] }

// lnParamScalar is LayerNorm.reduceBody's definition over columns
// [j0, cols) of rows [lo, hi), written out again: the gain gradient in
// acc[:cols], the shift gradient in acc[cols:].
func lnParamScalar(acc []float64, dy, xh *Matrix, j0, lo, hi int) {
	c := dy.Cols
	dGain, dShift := acc[j0:c], acc[c+j0:2*c]
	for i := lo; i < hi; i++ {
		x := xh.Row(i)[j0:]
		for j, g := range dy.Row(i)[j0:] {
			dGain[j] += float64(g * x[j])
			dShift[j] += g
		}
	}
}

// TestColumnAccumulationsMatchScalar holds ColSumsAcc and
// LayerNormParamGradAcc to their scalar definitions: rows 1…20 from an odd
// first row, every width of backwardWidths, finite inputs and inputs with
// ±0, ±Inf and NaN payloads planted, with NaN rows outside the range (a
// read of one would show). The kernel must finish exactly the passes
// before the first one whose result holds a NaN, leave the columns after
// it untouched, and write nothing past the accumulator (guard words).
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
						colSumScalar(want, dy.Row(i))
					}
					ColSumsAcc(got, dy, lo, hi)
					if j := bitsEqual(got, want); j >= 0 {
						t.Fatalf("ColSumsAcc %s: column %d is %#x, want %#x", what, j, bitsOf(got[j]), bitsOf(want[j]))
					}
					if bitsOf(buf[0]) != guard || bitsOf(buf[cols+1]) != guard {
						t.Fatalf("ColSumsAcc %s: wrote past the accumulator", what)
					}

					// LayerNormParamGradAcc: the kernel alone, then the
					// caller's loop from where it stopped.
					buf = make([]float64, 2*cols+2)
					buf[0], buf[2*cols+1] = math.Float64frombits(guard), math.Float64frombits(guard)
					acc := buf[1 : 2*cols+1]
					copy(acc, sweepSlice[float64](rng, 2*cols, 0))
					entry := append([]float64(nil), acc...)
					wantAcc := append([]float64(nil), acc...)
					lnParamScalar(wantAcc, dy, xh, 0, lo, hi)
					done := LayerNormParamGradAcc(acc, dy, xh, lo, hi)
					nan := min(firstNaN(wantAcc[:cols]), firstNaN(wantAcc[cols:]))
					if want := passDone(colPass(), nan, cols); done != want {
						t.Fatalf("LayerNormParamGradAcc %s: finished %d columns, want %d (first NaN %d)", what, done, want, nan)
					}
					if j := bitsEqual(acc[done:cols], entry[done:cols]); j >= 0 {
						t.Fatalf("LayerNormParamGradAcc %s: wrote gain column %d it handed back", what, done+j)
					}
					if j := bitsEqual(acc[cols+done:], entry[cols+done:]); j >= 0 {
						t.Fatalf("LayerNormParamGradAcc %s: wrote shift column %d it handed back", what, done+j)
					}
					lnParamScalar(acc, dy, xh, done, lo, hi)
					if j := bitsEqual(acc, wantAcc); j >= 0 {
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

// spanScalar is SpanAcc's definition over columns [j0, len(dst)), written
// out again.
func spanScalar[T float](dst, src []T, stride, base int, idx []int, n int, scale []float64, j0 int) {
	w := len(dst)
	d := dst[j0:]
	for k := 0; k < n; k++ {
		r := base + k
		if idx != nil {
			r = base + idx[k]
		}
		row := src[r*stride+j0 : r*stride+w]
		if scale == nil {
			for j, v := range row {
				d[j] += v
			}
			continue
		}
		s := T(scale[k])
		for j, v := range row {
			d[j] += T(s * v)
		}
	}
}

// spanPass is SpanAcc's pass width in columns of T.
func spanPass[T float]() int {
	var e T
	if _, single := any(e).(float32); single {
		return 2 * colPass()
	}
	return colPass()
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
// payloads planted in src, scale and dst. The kernel must finish exactly
// the passes before the first whose result holds a NaN, leave the rest of
// dst as it was, write nothing outside dst (guard words), and do nothing
// where an index leaves src.
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
								spanScalar(want, src[off:], stride, base, idx, n, scale, 0)

								what := fmt.Sprintf("w %d stride %d n %d indexed %v scaled %v plants 1/%d", w, stride, n, indexed, scaled, every)
								done := SpanAcc(dst, src[off:], stride, base, idx, n, scale)
								wantDone := passDone(spanPass[T](), firstNaN(want), w)
								if n == 0 {
									wantDone = w
								}
								if done != wantDone {
									t.Fatalf("%s: finished %d columns, want %d", what, done, wantDone)
								}
								if j := bitsEqual(dst[done:], entry[done:]); j >= 0 {
									t.Fatalf("%s: wrote column %d it handed back", what, done+j)
								}
								spanScalar(dst, src[off:], stride, base, idx, n, scale, done)
								if j := bitsEqual(dst, want); j >= 0 {
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
									if done := SpanAcc(dst, src[off:], stride, base, bad, n, scale); done != 0 {
										t.Fatalf("%s: finished %d columns over an index outside src", what, done)
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
// from dy, the forward's xh and inv, and the gain; it also returns the
// row's two sums.
func lnGradOneRow64(out, dy, xh, gain []float64, inv float64) (sum1, sum2 float64) {
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
	return sum1, sum2
}

// TestLayerNormGradRowsMatchesOneRow holds LayerNormGradRows to the one-row
// definition, bit for bit and on every rung: rows 1…40 (zero to five
// groups of eight and every remainder) from an odd first row, every width
// of backwardWidths, each case with one plant: none, a row of ±0, a
// gradient so large that n·d overflows (∞ − ∞ inside the second pass), a
// NaN or an infinity in dy, a NaN in the gain or xhat, an infinite invStd.
// The call must do exactly the whole groups the rung allows — on avx512
// up to the first group with a row whose sums or invStd are not finite,
// none elsewhere — report whether it stopped there, and write nothing
// else; finished as internal/nn finishes it, every row must be the
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
				finite := make([]bool, total)
				for i := lo; i < hi; i++ {
					s1, s2 := lnGradOneRow64(want.Row(i), dy.Row(i), xh.Row(i), gain, inv[i])
					finite[i] = !math.IsInf(s1, 0) && !math.IsNaN(s1) && !math.IsInf(s2, 0) && !math.IsNaN(s2) &&
						!math.IsInf(inv[i], 0) && !math.IsNaN(inv[i])
				}
				wantDone, wantStopped := lo, false
				var wantScalar []int
				for g := lo; g < hi; g += 8 {
					ok := g+8 <= hi && tier == tierAVX512 && cols > 0
					for i := g; ok && i < g+8; i++ {
						ok = finite[i]
					}
					if !ok {
						if g+8 <= hi && tier == tierAVX512 && !wantStopped && wantDone == g {
							wantStopped = true
						}
						for i := g; i < min(g+8, hi); i++ {
							wantScalar = append(wantScalar, i)
						}
						continue
					}
					if !wantStopped && wantDone == g {
						wantDone = g + 8
					}
				}
				name := fmt.Sprintf("cols %d rows %d plant %q", cols, rows, what)

				got := New(total, cols)
				for i := range got.Data {
					got.Data[i] = math.Float64frombits(0x7ff4dead0000beef)
				}
				sentinel := append([]float64(nil), got.Data...)
				done, stopped := LayerNormGradRows(got, dy, xh, inv, gain, lo, hi)
				if done != wantDone || stopped != wantStopped {
					t.Fatalf("%s: first call did rows [%d, %d), stopped %v; want [%d, %d), stopped %v",
						name, lo, done, stopped, lo, wantDone, wantStopped)
				}
				if j := bitsEqual(got.Data[:lo*cols], sentinel[:lo*cols]); j >= 0 {
					t.Fatalf("%s: wrote element %d before lo", name, j)
				}
				if j := bitsEqual(got.Data[done*cols:], sentinel[done*cols:]); j >= 0 {
					t.Fatalf("%s: wrote element %d past the rows it did", name, done*cols+j)
				}
				// Finish as internal/nn does: the handed-back group by the
				// definition, then resume; the rest by the definition.
				var scalar []int
				finish := func(a, b int) {
					for i := a; i < b; i++ {
						lnGradOneRow64(got.Row(i), dy.Row(i), xh.Row(i), gain, inv[i])
						scalar = append(scalar, i)
					}
				}
				for d, s := done, stopped; ; {
					if !s {
						finish(d, hi)
						break
					}
					finish(d, d+8)
					d, s = LayerNormGradRows(got, dy, xh, inv, gain, d+8, hi)
				}
				if fmt.Sprint(scalar) != fmt.Sprint(wantScalar) {
					t.Fatalf("%s: the kernel left rows %v, want %v", name, scalar, wantScalar)
				}
				if j := bitsEqual(got.Data[hi*cols:], sentinel[hi*cols:]); j >= 0 {
					t.Fatalf("%s: wrote element %d past hi", name, hi*cols+j)
				}
				for i := lo; i < hi; i++ {
					if j := bitsEqual(got.Row(i), want.Row(i)); j >= 0 {
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
// chunk (256 rows) the same way, the columns a rung leaves done by the
// definition.
func BenchmarkLayerNormParamGradAcc(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	const rows = 256
	for _, cols := range []int{8, 32} {
		dy, xh, acc := randomMatrix(rng, rows, cols), randomMatrix(rng, rows, cols), make([]float64, 2*cols)
		eachRung(b, cols, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if j := LayerNormParamGradAcc(acc, dy, xh, 0, rows); j < cols {
					lnParamScalar(acc, dy, xh, j, 0, rows)
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
				k, _ := LayerNormGradRows(dx, dy, xh, inv, gain, 0, rows)
				for ; k < rows; k++ {
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
				if j := SpanAcc(dst, src, w, 0, idx, n, scale); j < w {
					spanScalar(dst, src, w, 0, idx, n, scale, j)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/row")
		})
	}
}
