package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"meshgnn/internal/parallel"
	"meshgnn/internal/tensor"
)

// layerAtATime is the evaluation order the fused block replaced, kept as
// the reference it must match bit for bit: one layer after another, each
// over all rows at once, every intermediate materialised at full height —
// whole-matrix kernels (tensor.MatMul, tensor.MatMulATB, tensor.MatMul32)
// where they exist, one reduction per parameter tensor per sample block
// with the layer's own grain, weight partials summed into a zeroed scratch
// before they reach the gradient.
type layerAtATime struct {
	y      *tensor.Matrix
	linIn  []*tensor.Matrix // each Linear's cached input
	eluOut []*tensor.Matrix // each ELU's cached output
	xhat   *tensor.Matrix
	invStd []float64
	dx     *tensor.Matrix
	grads  []*tensor.Matrix // in Params() order, accumulated onto the initial G
}

func refForward(m *MLP, x *tensor.Matrix) *layerAtATime {
	ref := &layerAtATime{}
	for _, l := range m.block.layers {
		switch t := l.(type) {
		case *Linear:
			ref.linIn = append(ref.linIn, x)
			y := tensor.New(x.Rows, t.Out)
			tensor.MatMul(y, x, t.Weight.W)
			tensor.AddRowVectorRows(y, t.Bias.W.Data, 0, y.Rows)
			x = y
		case *ELU:
			y := tensor.New(x.Rows, x.Cols)
			for i, v := range x.Data { // the scalar definition, not tensor.EluRange
				y.Data[i] = tensor.Elu(v)
			}
			ref.eluOut = append(ref.eluOut, y)
			x = y
		case *LayerNorm:
			y := tensor.New(x.Rows, x.Cols)
			ref.xhat = tensor.New(x.Rows, x.Cols)
			ref.invStd = make([]float64, x.Rows)
			n := float64(t.Dim)
			for i := 0; i < x.Rows; i++ {
				row := x.Row(i)
				var mu, varsum float64
				for _, v := range row {
					mu += v
				}
				mu /= n
				for _, v := range row {
					varsum += float64((v - mu) * (v - mu))
				}
				inv := 1 / math.Sqrt(varsum/n+Epsilon)
				ref.invStd[i] = inv
				for j, v := range row {
					xh := (v - mu) * inv
					ref.xhat.Row(i)[j] = xh
					y.Row(i)[j] = float64(xh*t.Gain.W.Data[j]) + t.Shift.W.Data[j]
				}
			}
			x = y
		}
	}
	ref.y = x
	return ref
}

// chunkFold is the fixed reduction schedule parallel.Panels carries its
// reductions in, written out serially: rows [0, n) in chunks of grain
// rows, each chunk's body on a freshly zeroed accumulator, the merges in
// ascending chunk order.
func chunkFold(n, grain, accLen int, body func(lo, hi int, acc []float64), merge func(acc []float64)) {
	acc := make([]float64, accLen)
	for lo := 0; lo < n; lo += grain {
		clear(acc)
		body(lo, min(lo+grain, n), acc)
		merge(acc)
	}
}

// refBackward continues refForward with the backward pass over batch
// stacked sample blocks, accumulating onto clones of the current G.
func (ref *layerAtATime) refBackward(m *MLP, dy *tensor.Matrix, batch int) {
	per := dy.Rows / batch
	grad := map[*Param]*tensor.Matrix{}
	for _, p := range m.Params() {
		g := p.G.Clone()
		grad[p] = g
		ref.grads = append(ref.grads, g)
	}
	li, ei := len(ref.linIn), len(ref.eluOut)
	for k := len(m.block.layers) - 1; k >= 0; k-- {
		switch t := m.block.layers[k].(type) {
		case *LayerNorm:
			dx := tensor.New(dy.Rows, dy.Cols)
			dim, n := t.Dim, float64(t.Dim)
			gGain, gShift := grad[t.Gain].Data, grad[t.Shift].Data
			for b := 0; b < batch; b++ {
				off := b * per
				cur := dy
				chunkFold(per, 256, 2*dim, func(lo, hi int, acc []float64) {
					for i := off + lo; i < off+hi; i++ {
						dyr, xh := cur.Row(i), ref.xhat.Row(i)
						var sum1, sum2 float64
						for j, g := range dyr {
							acc[j] += g * xh[j]
							acc[dim+j] += g
							dxh := g * t.Gain.W.Data[j]
							sum1 += dxh
							sum2 += dxh * xh[j]
						}
						for j, g := range dyr {
							dxh := g * t.Gain.W.Data[j]
							dx.Row(i)[j] = ref.invStd[i] / n * (n*dxh - sum1 - xh[j]*sum2)
						}
					}
				}, func(acc []float64) {
					for j := 0; j < dim; j++ {
						gGain[j] += acc[j]
						gShift[j] += acc[dim+j]
					}
				})
			}
			dy = dx
		case *Linear:
			li--
			x := ref.linIn[li]
			dw := tensor.New(t.In, t.Out)
			gB := grad[t.Bias].Data
			for b := 0; b < batch; b++ {
				xb, dyb := x.RowBlock(b*per, (b+1)*per), dy.RowBlock(b*per, (b+1)*per)
				tensor.MatMulATB(dw, xb, dyb)
				tensor.AddScaled(grad[t.Weight], 1, dw)
				chunkFold(per, tensor.ReduceGrain(t.Out), t.Out, func(lo, hi int, acc []float64) {
					tensor.ColSumsAcc(acc, dyb, lo, hi)
				}, func(acc []float64) {
					for j, v := range acc {
						gB[j] += v
					}
				})
			}
			dx, wT := tensor.New(dy.Rows, t.In), tensor.New(t.Out, t.In)
			tensor.TransposeInto(wT, t.Weight.W)
			tensor.MatMul(dx, dy, wT)
			dy = dx
		case *ELU:
			ei--
			y := ref.eluOut[ei]
			dx := tensor.New(dy.Rows, dy.Cols)
			for i, g := range dy.Data {
				if v := y.Data[i]; v > 0 {
					dx.Data[i] = g
				} else {
					dx.Data[i] = g * (v + 1)
				}
			}
			dy = dx
		}
	}
	ref.dx = dy
}

// refForward32 evaluates the compiled float32 block layer by layer at full
// height.
func refForward32(im *InferMLP32, x *tensor.Matrix32) *tensor.Matrix32 {
	for _, l := range im.layers {
		var y *tensor.Matrix32
		switch t := l.(type) {
		case *linear32:
			y = tensor.New32(x.Rows, t.out)
			tensor.MatMul32(y, x, t.w)
			tensor.AddRowVector32Rows(y, t.b, 0, y.Rows)
		case elu32:
			y = tensor.New32(x.Rows, x.Cols)
			tensor.EluRange32(y.Data, x.Data, 0, len(x.Data))
		case *ln32:
			y = tensor.New32(x.Rows, x.Cols)
			for i := 0; i < x.Rows; i++ {
				lnOneRow32(y.Row(i), x.Row(i), t.gain, t.shift)
			}
		}
		x = y
	}
	return x
}

// lnOneRow32 is the float32 LayerNorm of one row written out from its
// definition — float64 sums in ascending column order, the square rounded
// before it is added, the normalised value rounded to float32 before the
// unfused gain and shift — sharing no code with infer32.go or the tensor
// kernel behind it.
func lnOneRow32(out, row, gain, shift []float32) {
	var sum float64
	for j := 0; j < len(row); j++ {
		sum = sum + float64(row[j])
	}
	mean := sum / float64(len(row))
	var sq float64
	for j := 0; j < len(row); j++ {
		dev := float64(row[j]) - mean
		prod := dev * dev
		sq = sq + prod
	}
	scale := 1 / math.Sqrt(sq/float64(len(row))+Epsilon)
	for j := 0; j < len(row); j++ {
		hat := float32((float64(row[j]) - mean) * scale)
		prod := hat * gain[j]
		out[j] = prod + shift[j]
	}
}

func sameBits[T float32 | float64](t *testing.T, what string, got, want []T) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	// The bitwise contract (internal/tensor, pack.go): the same bits where
	// want is not NaN, a NaN where it is — which one is unspecified. A
	// float32 widens exactly, so its float64 bits tell values apart.
	for i, w := range want {
		if g := got[i]; w != w && g == g || w == w && math.Float64bits(float64(g)) != math.Float64bits(float64(w)) {
			t.Fatalf("%s: element %d is %v, want %v (bitwise)", what, i, g, w)
		}
	}
}

// TestBlockMatchesLayerAtATime: the fused block — training forward with
// its backward caches, the one-region backward whose per-block reductions
// advance as their panels complete, and both compiled evaluators — is
// bitwise the layer-at-a-time evaluation, for row counts either side of
// the panel height, widths of whole and partial float32 panels, with and without the norm, at every thread count, for 1, 2
// and 4 stacked sample blocks; the edge-shaped blocks (5 hidden layers,
// LargeConfig's 96 → 32 and SmallConfig's 24 → 8) at 85 rows a block, the 96-wide weight's chunk grain against
// the 64-row panels, at 200, which is no multiple of the panel, and at the
// benchmark's 3 072 edges, for 1 and 3 blocks; and the same block with a
// gather head and a residual tail in its panel loop is bitwise
// materialise-then-block-then-add (the headtail subtests).
func TestBlockMatchesLayerAtATime(t *testing.T) {
	defer parallel.Configure(0, true)
	rowCounts := []int{1, 3, panelRows - 1, panelRows, panelRows + 1, 127, 128, 129, 515}
	if !testing.Short() && !raceEnabled {
		rowCounts = append(rowCounts, 3072) // the benchmark's edge count
	}
	shapes := [][3]int{{12, 8, 8}, {96, 32, 32}, {7, 40, 3}} // in, hidden, out
	headTailRows := []int{1, panelRows - 1, panelRows, panelRows + 1, 200}
	if !testing.Short() && !raceEnabled {
		headTailRows = append(headTailRows, 3072)
	}
	for _, rows := range headTailRows {
		for _, sh := range shapes[:2] {
			for _, batch := range []int{1, 3} {
				name := fmt.Sprintf("headtail/rows%d/%dx%dx%d/B%d", rows, sh[0], sh[1], sh[2], batch)
				t.Run(name, func(t *testing.T) { checkBlockHeadTail(t, rows, sh, batch) })
			}
		}
	}
	for _, rows := range rowCounts {
		for _, sh := range shapes {
			for _, norm := range []bool{true, false} {
				for _, batch := range []int{1, 2, 4} {
					name := fmt.Sprintf("rows%d/%dx%dx%d/norm=%v/B%d", rows, sh[0], sh[1], sh[2], norm, batch)
					t.Run(name, func(t *testing.T) { checkBlock(t, rows, sh, 2, norm, batch) })
				}
			}
		}
	}
	edgeRows := []int{85, 200}
	if !testing.Short() && !raceEnabled {
		edgeRows = append(edgeRows, 3072)
	}
	for _, rows := range edgeRows {
		for _, sh := range [][3]int{{96, 32, 32}, {24, 8, 8}} {
			for _, batch := range []int{1, 3} {
				name := fmt.Sprintf("edge/rows%d/%dx%dx%d/B%d", rows, sh[0], sh[1], sh[2], batch)
				t.Run(name, func(t *testing.T) { checkBlock(t, rows, sh, 5, true, batch) })
			}
		}
	}
}

func checkBlock(t *testing.T, per int, sh [3]int, hidden int, norm bool, batch int) {
	rng := rand.New(rand.NewSource(int64(per*31 + sh[1]*7 + batch)))
	m := NewMLP("t", sh[0], sh[1], sh[2], hidden, norm, rng)
	arena := tensor.NewArena()
	m.SetArena(arena)
	for _, p := range m.Params() {
		for i := range p.W.Data {
			p.W.Data[i] += 0.1 * rng.NormFloat64()
		}
	}
	rows := per * batch
	x, dy := randInput(rng, rows, sh[0]), randInput(rng, rows, sh[2])
	g0 := make([]*tensor.Matrix, len(m.Params()))
	for i, p := range m.Params() {
		g0[i] = randInput(rng, p.G.Rows, p.G.Cols)
	}
	resetGrads := func() {
		for i, p := range m.Params() {
			p.G.CopyFrom(g0[i])
		}
	}

	parallel.Configure(1, true)
	resetGrads()
	ref := refForward(m, x)
	ref.refBackward(m, dy, batch)
	im, im32 := m.Compile(), m.Compile32()
	x32 := tensor.Demote32(x)
	want32 := refForward32(im32, x32)

	for _, threads := range []int{1, 2, 3, 8} {
		parallel.Configure(threads, true)
		what := func(s string) string { return fmt.Sprintf("threads=%d %s", threads, s) }
		resetGrads()
		arena.Reset()
		y := m.Forward(x)
		sameBits(t, what("forward output"), y.Data, ref.y.Data)
		li, ei := 0, 0
		for _, l := range m.block.layers {
			switch c := l.(type) {
			case *Linear:
				sameBits(t, what(fmt.Sprintf("linear %d input cache", li)), c.x.Data, ref.linIn[li].Data)
				li++
			case *ELU:
				sameBits(t, what(fmt.Sprintf("elu %d output cache", ei)), c.y.Data, ref.eluOut[ei].Data)
				ei++
			case *LayerNorm:
				sameBits(t, what("xhat cache"), c.xhat.Data, ref.xhat.Data)
				sameBits(t, what("invStd cache"), c.invStd, ref.invStd)
			}
		}
		dx := m.BackwardBatched(dy, batch)
		sameBits(t, what("input gradient"), dx.Data, ref.dx.Data)
		for i, p := range m.Params() {
			sameBits(t, what("gradient "+p.Name), p.G.Data, ref.grads[i].Data)
		}

		sameBits(t, what("InferForward"), im.InferForward(nil, x).Data, ref.y.Data)
		sameBits(t, what("InferForward32"), im32.InferForward32(nil, x32).Data, want32.Data)
	}
}

// gatherRows is a test head: row r of the block's input is row idx[r] of
// src.
type gatherRows[T elem] struct {
	src  []T
	cols int
	idx  []int
}

func (g *gatherRows[T]) Rows(p []T, r0, r1 int) {
	for r := r0; r < r1; r++ {
		copy(p[(r-r0)*g.cols:(r-r0+1)*g.cols], g.src[g.idx[r]*g.cols:(g.idx[r]+1)*g.cols])
	}
}

// addRows is a test tail: dst rows = the block's rows + src rows, where
// dst is the panel itself (a residual add in place) when nil.
type addRows[T elem] struct {
	src, dst []T
	cols     int
}

func (a *addRows[T]) Rows(p []T, r0, r1 int) {
	dst := p
	if a.dst != nil {
		dst = a.dst[r0*a.cols : r1*a.cols]
	}
	for i, v := range p {
		dst[i] = v + a.src[r0*a.cols+i]
	}
}

// checkBlockHeadTail: a block whose input is gathered by a head and whose
// output is finished by a residual tail — training forward and backward
// (where the head fills the output gradient and the tail reads the input
// gradient) and both compiled evaluators — against the same block on the
// materialised input with the add applied afterwards.
func checkBlockHeadTail(t *testing.T, per int, sh [3]int, batch int) {
	rng := rand.New(rand.NewSource(int64(per*17 + sh[1]*5 + batch)))
	m := NewMLP("t", sh[0], sh[1], sh[2], 2, true, rng)
	arena := tensor.NewArena()
	m.SetArena(arena)
	for _, p := range m.Params() {
		for i := range p.W.Data {
			p.W.Data[i] += 0.1 * rng.NormFloat64()
		}
	}
	rows := per * batch
	perm := func() []int {
		idx := make([]int, rows)
		for i := range idx {
			idx[i] = rng.Intn(rows)
		}
		return idx
	}
	// Forward: x[r] = src[idx[r]], y = block(x) + res. Backward: dy[r] =
	// dsrc[didx[r]], and the tail leaves dx + dres in dsum.
	src, res, idx := randInput(rng, rows, sh[0]), randInput(rng, rows, sh[2]), perm()
	dsrc, dres, didx := randInput(rng, rows, sh[2]), randInput(rng, rows, sh[0]), perm()
	x, dy := tensor.New(rows, sh[0]), tensor.New(rows, sh[2])
	for r := 0; r < rows; r++ {
		copy(x.Row(r), src.Row(idx[r]))
		copy(dy.Row(r), dsrc.Row(didx[r]))
	}
	g0 := make([]*tensor.Matrix, len(m.Params()))
	for i, p := range m.Params() {
		g0[i] = randInput(rng, p.G.Rows, p.G.Cols)
	}
	resetGrads := func() {
		for i, p := range m.Params() {
			p.G.CopyFrom(g0[i])
		}
	}

	parallel.Configure(1, true)
	resetGrads()
	ref := refForward(m, x)
	ref.refBackward(m, dy, batch)
	wantY, wantSum := ref.y.Clone(), ref.dx.Clone()
	for i, v := range res.Data {
		wantY.Data[i] += v
	}
	for i, v := range dres.Data {
		wantSum.Data[i] += v
	}
	im, im32 := m.Compile(), m.Compile32()
	src32, res32 := tensor.Demote32(src), tensor.Demote32(res)
	want32 := refForward32(im32, tensor.Demote32(x))
	for i, v := range res32.Data {
		want32.Data[i] += v
	}

	head := &gatherRows[float64]{src: src.Data, cols: sh[0], idx: idx}
	tail := &addRows[float64]{src: res.Data, cols: sh[2]}
	dsum := tensor.New(rows, sh[0])
	dhead := &gatherRows[float64]{src: dsrc.Data, cols: sh[2], idx: didx}
	dtail := &addRows[float64]{src: dres.Data, dst: dsum.Data, cols: sh[0]}
	head32 := &gatherRows[float32]{src: src32.Data, cols: sh[0], idx: idx}
	tail32 := &addRows[float32]{src: res32.Data, cols: sh[2]}
	for _, threads := range []int{1, 2, 4} {
		parallel.Configure(threads, true)
		// Forward and backward through the block, its input gathered by a
		// head (ForwardRows, BackwardRows) or its first Linear evaluated by
		// one (ForwardPre, then BackwardPre over the Linear as one part,
		// the materialised input: bitwise the Linear both ways).
		for _, pass := range []struct {
			name     string
			forward  func() *tensor.Matrix
			backward func(dy *tensor.Matrix) *tensor.Matrix
		}{
			{"ForwardRows", func() *tensor.Matrix { return m.ForwardRows(rows, head, tail) },
				func(dy *tensor.Matrix) *tensor.Matrix { return m.BackwardRows(dy, batch, dhead, dtail) }},
			{"ForwardPre", func() *tensor.Matrix {
				return m.ForwardPre(rows, &preRows[float64]{gatherRows: head, split: m.SplitFirst(1)}, tail)
			}, func(dy *tensor.Matrix) *tensor.Matrix {
				_, dx := m.BackwardPre(dy, batch, x, 0, dhead, dtail)
				return dx
			}},
		} {
			what := func(s string) string { return fmt.Sprintf("threads=%d %s %s", threads, pass.name, s) }
			resetGrads()
			arena.Clear() // the two passes draw different workspaces
			y := pass.forward()
			sameBits(t, what("forward output"), y.Data, wantY.Data)
			li, ei := 0, 0
			for _, l := range m.block.layers {
				switch c := l.(type) {
				case *Linear:
					if li == 0 && pass.name == "ForwardPre" {
						if c.x != nil {
							t.Fatal(what("the first Linear holds an input"))
						}
					} else {
						sameBits(t, what(fmt.Sprintf("linear %d input cache", li)), c.x.Data, ref.linIn[li].Data)
					}
					li++
				case *ELU:
					sameBits(t, what(fmt.Sprintf("elu %d output cache", ei)), c.y.Data, ref.eluOut[ei].Data)
					ei++
				case *LayerNorm:
					sameBits(t, what("xhat cache"), c.xhat.Data, ref.xhat.Data)
					sameBits(t, what("invStd cache"), c.invStd, ref.invStd)
				}
			}
			dyFill := tensor.New(rows, sh[2]) // the head writes every row
			dsum.Zero()
			dx := pass.backward(dyFill)
			sameBits(t, what("head-filled output gradient"), dyFill.Data, dy.Data)
			sameBits(t, what("input gradient"), dx.Data, ref.dx.Data)
			sameBits(t, what("tail of the input gradient"), dsum.Data, wantSum.Data)
			for i, p := range m.Params() {
				sameBits(t, what("gradient "+p.Name), p.G.Data, ref.grads[i].Data)
			}
		}

		what := func(s string) string { return fmt.Sprintf("threads=%d %s", threads, s) }
		sameBits(t, what("InferRows"), im.InferRows(nil, rows, head, tail).Data, wantY.Data)
		sameBits(t, what("InferPre"), im.InferPre(nil, rows,
			&preRows[float64]{gatherRows: head, split: im.SplitFirst(1)}, tail).Data, wantY.Data)
		sameBits(t, what("InferRows32"), im32.InferRows32(nil, rows, head32, tail32).Data, want32.Data)
		sameBits(t, what("InferPre32"), im32.InferPre32(nil, rows,
			&preRows[float32]{gatherRows: head32, split: im32.SplitFirst(1)}, tail32).Data, want32.Data)
	}
}

// preRows is a test PreHead: the first Linear's input rows gathered like
// gatherRows does, into scratch of its own, and its output computed from
// them through split.
type preRows[T elem] struct {
	*gatherRows[T]
	split SplitLinear[T]
}

func (h *preRows[T]) PreRows(y []T, r0, r1 int) {
	x := make([]T, (r1-r0)*h.cols)
	h.Rows(x, r0, r1)
	h.split.MulRows(y, x, r1-r0, 0, true)
}

// TestStandaloneLayersAreChainsOfOne: a layer's own Forward/Backward and
// the same layer inside a block agree — including an ELU on caller-owned
// input, which must not activate in place.
func TestStandaloneLayersAreChainsOfOne(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x := randInput(rng, 130, 6)
	keep := x.Clone()
	e := &ELU{}
	y := e.Forward(x)
	sameBits(t, "ELU input left intact", x.Data, keep.Data)
	if &y.Data[0] == &x.Data[0] {
		t.Fatal("standalone ELU activated the caller's input in place")
	}
	dy := randInput(rng, 130, 6)
	keepDy := dy.Clone()
	dx := e.Backward(dy)
	sameBits(t, "ELU output gradient left intact", dy.Data, keepDy.Data)
	if &dx.Data[0] == &dy.Data[0] {
		t.Fatal("standalone ELU overwrote the caller's gradient")
	}
}

// TestLayerNormInterleaveMatchesOneRow: the float64 LayerNorm forward and
// input gradient hand whole groups of eight rows to their tensor kernels
// (avx512), then carry lnRows rows' reductions at a time, then one; the
// gain/shift reduction runs on the column kernel (avx2, avx512). Against the one-row-at-a-time reference above,
// every row count up to 2·8+lnRows+1 (zero to two kernel groups, each
// followed by every number of lnRows groups and rows left over) and
// widths {1, 8, 16, 32, 33} — either side of lnInterleaveMin, below which
// the passes are one row at a time — give the same forward output and
// caches, the same inference output, the same input gradient and the same
// gain and shift gradients, bit for bit.
func TestLayerNormInterleaveMatchesOneRow(t *testing.T) {
	defer parallel.Configure(0, true)
	parallel.Configure(1, true)
	for _, width := range []int{1, 8, lnInterleaveMin, 32, 33} {
		for rows := 1; rows <= 2*8+lnRows+1; rows++ {
			rng := rand.New(rand.NewSource(int64(100*width + rows)))
			ln := NewLayerNorm("ln", width)
			for j := range ln.Gain.W.Data {
				ln.Gain.W.Data[j] = 1 + 0.3*rng.NormFloat64()
				ln.Shift.W.Data[j] = 0.3 * rng.NormFloat64()
			}
			m := &MLP{In: width, Out: width, block: chain{layers: []rowLayer{ln}}}
			x, dy := randInput(rng, rows, width), randInput(rng, rows, width)
			for _, p := range m.Params() {
				p.G.CopyFrom(randInput(rng, p.G.Rows, p.G.Cols))
			}
			ref := refForward(m, x)
			ref.refBackward(m, dy, 1)

			what := func(s string) string { return fmt.Sprintf("rows=%d width=%d %s", rows, width, s) }
			sameBits(t, what("forward output"), m.Forward(x).Data, ref.y.Data)
			sameBits(t, what("xhat cache"), ln.xhat.Data, ref.xhat.Data)
			sameBits(t, what("invStd cache"), ln.invStd, ref.invStd)
			sameBits(t, what("InferForward"), m.Compile().InferForward(nil, x).Data, ref.y.Data)
			sameBits(t, what("input gradient"), m.Backward(dy).Data, ref.dx.Data)
			for i, p := range m.Params() {
				sameBits(t, what("gradient "+p.Name), p.G.Data, ref.grads[i].Data)
			}
		}
	}
}

// TestLayerNorm32MatchesOneRow holds the compiled float32 LayerNorm, on
// the rung this machine runs, to the one-row scalar loop above (its bits
// where it is not NaN, a NaN where it is): rows 1…19
// (zero to two groups of the kernel's eight rows and every remainder) and
// the same behind whole groups of filler rows, so that the call is large
// enough for the vector kernel whatever the width; widths either side of
// its 8-column blocks; and in every case one row of ±0, of huge or of tiny
// magnitudes, or holding a NaN, an infinity or both — whose neighbours in
// the group must come out as if it were ordinary. (The walk over every
// rung, in place and with NaN parameters, is internal/tensor's
// TestLayerNorm32RowsMatchesOneRow.)
func TestLayerNorm32MatchesOneRow(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	nan := func() float32 { return math.Float32frombits(0x7fc00000 | rng.Uint32()>>10) }
	for _, width := range []int{1, 8, 16, 32, 33, 96} {
		gain, shift := make([]float32, width), make([]float32, width)
		for j := range gain {
			gain[j] = float32(1 + 0.3*rng.NormFloat64())
			shift[j] = float32(0.3 * rng.NormFloat64())
		}
		ln := &ln32{dim: width, gain: gain, shift: shift}
		for rows := 1; rows <= 19; rows++ {
			for _, filler := range []int{0, 2 * panelRows} {
				for _, plant := range []string{"", "zeros", "huge", "tiny", "NaN", "Inf", "NaN+Inf"} {
					n := rows + filler
					x := tensor.New32(n, width)
					for i := range x.Data {
						x.Data[i] = float32(rng.NormFloat64())
					}
					victim := x.Row(rng.Intn(rows))
					switch plant {
					case "zeros":
						for j := range victim {
							victim[j] = float32(math.Copysign(0, float64(rng.Intn(2))-0.5))
						}
					case "huge":
						for j := range victim {
							victim[j] *= 1e37
						}
					case "tiny":
						for j := range victim {
							victim[j] *= 1e-42
						}
					case "NaN":
						victim[rng.Intn(width)] = nan()
					case "Inf":
						victim[rng.Intn(width)] = float32(math.Inf(1 - 2*rng.Intn(2)))
					case "NaN+Inf":
						victim[rng.Intn(width)] = nan()
						victim[rng.Intn(width)] = float32(math.Inf(-1))
						victim[rng.Intn(width)] = nan()
					}
					want, got := tensor.New32(n, width), tensor.New32(n, width)
					for i := 0; i < n; i++ {
						lnOneRow32(want.Row(i), x.Row(i), gain, shift)
					}
					ln.inferRows(panel[float32]{n, width, got.Data}, panel[float32]{n, width, x.Data})
					sameBits(t, fmt.Sprintf("rows=%d (+%d) width=%d %s", rows, filler, width, plant), got.Data, want.Data)
				}
			}
		}
	}
}
