package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestMatMulATBAccBitwise holds the weight gradient's chunk body to the
// float64 product's definition under the contract mismatch checks on
// every rung: x widths in and dy widths n from {1, 3, 4, 7, 8, 9, 16, 24,
// 32} (whole panels of eight columns and partial ones),
// chunks of 0…70 rows and of 1 365 (the ReduceGrain of SmallConfig's 24×8
// weight), all from odd first rows, into an acc that enters holding
// values, −0 among them; on plain data and on data planted with groups of
// four zero x values, signed zeros, ±Inf (so 0·Inf, a NaN, meets the
// sums), and NaN payloads in x, in dy and in the entry acc. Nothing
// outside acc is written. A shape that does not match, and rows outside
// the operands, panic before a kernel reads memory.
func TestMatMulATBAccBitwise(t *testing.T) {
	sizes := []int{1, 3, 4, 7, 8, 9, 16, 24, 32}
	plants := []string{"plain", "zeros", "Inf", "NaN in x", "NaN in dy", "NaN in acc", "everything"}
	negZero := math.Copysign(0, -1)
	type atbCase struct {
		what        string
		x, dy       *Matrix
		lo, hi      int
		entry, want []float64
	}
	rng := rand.New(rand.NewSource(1365))
	newCase := func(rows, in, n int, plant string) atbCase {
		everything := plant == "everything"
		infs := plant == "Inf" || everything
		value := func(nan bool) float64 {
			switch r := rng.Intn(64); {
			case r < 4 && plant != "plain":
				return []float64{0, negZero}[r&1]
			case r == 4 && infs:
				return math.Inf(1 - 2*rng.Intn(2))
			case r == 5 && nan:
				return sweepValue[float64](rng, 1)
			}
			return rng.NormFloat64()
		}
		lo := 1 + 2*rng.Intn(3)
		x, dy := New(lo+rows+2, in), New(lo+rows+2, n)
		for i := range x.Data {
			x.Data[i] = value(plant == "NaN in x" || everything)
		}
		for i := range dy.Data {
			dy.Data[i] = value(plant == "NaN in dy" || everything)
		}
		if plant != "plain" {
			// Groups of four zero x values of either sign down a third of
			// the columns, from lo.
			for r := lo; r+4 <= lo+rows; r += 4 {
				for i := 0; i < in; i++ {
					if rng.Intn(3) == 0 {
						for q := r; q < r+4; q++ {
							x.Row(q)[i] = []float64{0, negZero}[rng.Intn(2)]
						}
					}
				}
			}
		}
		entry := make([]float64, in*n)
		for i := range entry {
			entry[i] = value(plant == "NaN in acc" || everything)
		}
		want := slices.Clone(entry)
		definition(want, n, x.Data[lo*in:], 1, in, dy.Data[lo*n:], n, rows, n, nil, 1, 0, in)
		return atbCase{
			what: fmt.Sprintf("%d rows from %d, %dx%d, %s", rows, lo, in, n, plant),
			x:    x, dy: dy, lo: lo, hi: lo + rows, entry: entry, want: want,
		}
	}
	var shapes [][2]int
	for _, in := range sizes {
		for _, n := range sizes {
			shapes = append(shapes, [2]int{in, n})
		}
	}
	var cases []atbCase
	for rows := 0; rows <= 70; rows++ {
		sh := shapes[(7*rows)%len(shapes)]
		cases = append(cases, newCase(rows, sh[0], sh[1], plants[rows%len(plants)]))
	}
	for p, sh := range shapes {
		for _, plant := range []string{plants[p%len(plants)], "zeros"} {
			cases = append(cases, newCase(21+p%4, sh[0], sh[1], plant))
		}
	}
	for p, sh := range [][2]int{{24, 8}, {16, 8}, {8, 8}, {32, 3}, {3, 32}} {
		cases = append(cases, newCase(1365, sh[0], sh[1], plants[p%3]))
	}

	const guard, sentinel = 8, 0x7ff8dead0000beef
	atEachTier(t, func(t *testing.T) {
		for _, c := range cases {
			in, n := c.x.Cols, c.dy.Cols
			buf := make([]float64, guard+in*n+guard)
			for i := range buf {
				buf[i] = math.Float64frombits(sentinel)
			}
			acc := buf[guard : guard+in*n]
			copy(acc, c.entry)
			MatMulATBAcc(acc, c.x, c.dy, c.lo, c.hi)
			if i := mismatch(acc, c.want); i >= 0 {
				t.Fatalf("%s: element %d (row %d) is %#x, want %#x", c.what, i, i/n,
					math.Float64bits(acc[i]), math.Float64bits(c.want[i]))
			}
			for i, v := range buf {
				if (i < guard || i >= guard+in*n) && math.Float64bits(v) != sentinel {
					t.Fatalf("%s: %v written outside acc, at %d", c.what, v, i-guard)
				}
			}
		}
	})

	t.Run("panics", func(t *testing.T) {
		x, dy := New(10, 3), New(10, 8)
		for what, call := range map[string]func(){
			"acc too short":     func() { MatMulATBAcc(make([]float64, 23), x, dy, 0, 10) },
			"acc too long":      func() { MatMulATBAcc(make([]float64, 25), x, dy, 0, 10) },
			"row counts differ": func() { MatMulATBAcc(make([]float64, 24), x, New(9, 8), 0, 9) },
			"lo < 0":            func() { MatMulATBAcc(make([]float64, 24), x, dy, -1, 10) },
			"hi past the rows":  func() { MatMulATBAcc(make([]float64, 24), x, dy, 0, 11) },
			"lo > hi":           func() { MatMulATBAcc(make([]float64, 24), x, dy, 5, 4) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: MatMulATBAcc did not panic", what)
					}
				}()
				call()
			}()
		}
	})
}

// TestMatMulATBAccResumes: on every rung and for every shape, a chunk of
// the weight gradient taken in pieces into one accumulator is bitwise the
// chunk in one call, from an entry value that is not zero, wherever the
// cuts fall — each element is one fused multiply-add chain, rows
// ascending, onto what acc holds, so a parallel.Panels region may advance
// a chunk as its rows complete. The shapes take whole and partial panels,
// small and large.
func TestMatMulATBAccResumes(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	shapes := [][2]int{{96, 32}, {32, 32}, {64, 36}, {32, 33}, {16, 72}, {24, 8}, {16, 8}, {8, 8}, {32, 3}, {3, 32}, {7, 9}, {3, 8}}
	atEachTier(t, func(t *testing.T) {
		for _, sh := range shapes {
			in, n := sh[0], sh[1]
			for trial := 0; trial < 12; trial++ {
				rows, lo := 1+rng.Intn(200), rng.Intn(5)
				x, dy := randomMatrix(rng, lo+rows+3, in), randomMatrix(rng, lo+rows+3, n)
				for i := range x.Data {
					if rng.Intn(8) == 0 {
						x.Data[i] = 0
					}
				}
				entry := make([]float64, in*n)
				for i := range entry {
					entry[i] = 1000 * rng.NormFloat64()
				}
				want := slices.Clone(entry)
				MatMulATBAcc(want, x, dy, lo, lo+rows)
				got, from := slices.Clone(entry), lo
				var cuts []int
				for m := lo + 1; m < lo+rows; m++ {
					if rng.Intn(16) == 0 {
						cuts = append(cuts, m)
					}
				}
				for _, m := range append(cuts, lo+rows) {
					MatMulATBAcc(got, x, dy, from, m)
					from = m
				}
				if i := mismatch(got, want); i >= 0 {
					t.Fatalf("%dx%d rows [%d, %d) cut at %v: element %d is %v, want %v",
						in, n, lo, lo+rows, cuts, i, got[i], want[i])
				}
			}
		}
	})
}

// BenchmarkSmallBackward times SmallConfig's backward GEMMs per rung on a
// 64-row panel: the input gradient dy·Wᵀ — MatMulBiasRows on the
// transpose, no bias — of its 8 → 24, 8 → 16 and 8 → 8 layers, and the
// weight gradient's chunk body MatMulATBAcc for its 24×8, 16×8 and 8×8
// weights and LargeConfig's 32×3 decoder and 3×32 encoder.
func BenchmarkSmallBackward(b *testing.B) {
	rng := rand.New(rand.NewSource(39))
	type form struct {
		name string
		run  func()
	}
	var forms []form
	for _, in := range []int{24, 16, 8} {
		dy, wT, dx := randomMatrix(rng, 64, 8), randomMatrix(rng, 8, in), New(64, in)
		forms = append(forms, form{fmt.Sprintf("ABT8to%d", in), func() { MatMulBiasRows(dx, dy, wT, nil, 0, 64) }})
	}
	for _, sh := range [][2]int{{24, 8}, {16, 8}, {8, 8}, {32, 3}, {3, 32}} {
		x, dy, acc := randomMatrix(rng, 64, sh[0]), randomMatrix(rng, 64, sh[1]), make([]float64, sh[0]*sh[1])
		forms = append(forms, form{fmt.Sprintf("ATB%dx%d", sh[0], sh[1]), func() { MatMulATBAcc(acc, x, dy, 0, 64) }})
	}
	for _, f := range forms {
		for r := tierAVX512; r >= tierGo; r-- {
			b.Run(fmt.Sprintf("%s/%v", f.name, r), func(b *testing.B) {
				if r > cpuTier {
					b.Skipf("rung %v not run: this CPU's top rung is %v", r, cpuTier)
				}
				defer setKernelTier(setKernelTier(r))
				for i := 0; i < b.N; i++ {
					f.run()
				}
			})
		}
	}
}
