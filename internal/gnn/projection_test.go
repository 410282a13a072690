package gnn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"meshgnn/internal/comm"
	"meshgnn/internal/graph"
	"meshgnn/internal/mesh"
	"meshgnn/internal/nn"
	"meshgnn/internal/partition"
	"meshgnn/internal/tensor"
)

// splitPre is the edge head's pre-activation over one sample: x projected
// through first's node parts, then edgeHeadTask over every edge.
func splitPre[T elem](g *graph.Local, first nn.SplitLinear[T], x, e []T, h int) []T {
	nl, ne := g.NumLocal(), g.NumEdges()
	p, q := make([]T, nl*h), make([]T, nl*h)
	first.MulRows(p, x, nl, recvPart, false)
	first.MulRows(q, x, nl, sendPart, false)
	pre := make([]T, ne*h)
	head := &edgeHeadTask[T]{g: g, e: rowsOf[T]{e, h}, p: rowsOf[T]{p, h}, q: rowsOf[T]{q, h}, first: first}
	head.PreRows(pre, 0, ne)
	return pre
}

// edgeInput gathers the paper's edge input rows, (x_i ‖ x_j ‖ e_ij) for
// each edge k of g, i the receiver and j the sender.
func edgeInput[T elem](g *graph.Local, x, e []T, h int) []T {
	in := make([]T, g.NumEdges()*3*h)
	for k, ed := range g.Edges {
		row := in[k*3*h : (k+1)*3*h]
		copy(row[:h], x[ed[1]*h:(ed[1]+1)*h])
		copy(row[h:2*h], x[ed[0]*h:(ed[0]+1)*h])
		copy(row[2*h:], e[k*h:(k+1)*h])
	}
	return in
}

// concatPre is the paper's first Linear: the (x_i ‖ x_j ‖ e_ij) rows
// gathered, times the whole 3H×H weight, plus the bias, by the linear
// layer's kernel.
func concatPre[T elem](g *graph.Local, w, b, x, e []T, h int) []T {
	ne := g.NumEdges()
	in, out := edgeInput(g, x, e, h), make([]T, ne*h)
	switch o := any(out).(type) {
	case []float64:
		tensor.MatMulBiasRows(tensor.FromSlice(ne, h, o), tensor.FromSlice(ne, 3*h, any(in).([]float64)),
			tensor.FromSlice(3*h, h, any(w).([]float64)), any(b).([]float64), 0, ne)
	case []float32:
		tensor.MatMul32BiasRows(&tensor.Matrix32{Rows: ne, Cols: h, Data: o},
			&tensor.Matrix32{Rows: ne, Cols: 3 * h, Data: any(in).([]float32)},
			&tensor.Matrix32{Rows: 3 * h, Cols: h, Data: any(w).([]float32)}, any(b).([]float32), 0, ne)
	}
	return out
}

// worstDecompositionError returns the largest |split − concat| over every
// element, in units of the bound 2·(3H+2)·u·(Σ_k |in_k·w_kj| + |b_j|), u
// the unit roundoff of T: each side is a sum of the same 3H+1 terms,
// rounded at most 3H+2 times along its way (FMA chains or, on the go
// rung's float32 loop, unfused ones, plus the adds that join the parts),
// so each is within (3H+2)·u of that magnitude from the exact sum, and the
// two within twice it from each other. Values under 1 meet the bound.
func worstDecompositionError[T elem](g *graph.Local, w, b, x, e, split, concat []T, h int, u float64) float64 {
	var worst float64
	for k, ed := range g.Edges {
		for j := 0; j < h; j++ {
			mag := math.Abs(float64(b[j]))
			for part, row := range [][]T{x[ed[1]*h : (ed[1]+1)*h], x[ed[0]*h : (ed[0]+1)*h], e[k*h : (k+1)*h]} {
				for c, v := range row {
					mag += math.Abs(float64(v) * float64(w[(part*h+c)*h+j]))
				}
			}
			bound := 2 * float64(3*h+2) * u * mag
			d := math.Abs(float64(split[k*h+j]) - float64(concat[k*h+j]))
			if bound == 0 {
				if d != 0 {
					return math.Inf(1)
				}
				continue
			}
			worst = max(worst, d/bound)
		}
	}
	return worst
}

// TestEdgePreActivationDecomposition holds the edge head's pre-activation,
// (e_k·W_2 + b) + (P_i + Q_j) with P and Q the node parts' products, to the
// paper's product of the concatenated (x_i ‖ x_j ‖ e_ij) row through the
// whole first Linear, at SmallConfig's and LargeConfig's widths, float64
// and float32: within the rounding bound of worstDecompositionError (the
// two are equal in exact arithmetic and group the sum differently), and
// not bitwise equal everywhere — a head that still multiplied the
// concatenation would match it exactly, and this test would not be
// testing the decomposition.
func TestEdgePreActivationDecomposition(t *testing.T) {
	box, err := mesh.NewBox(4, 3, 3, 2, [3]bool{true, true, true})
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.BuildSingle(box)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for _, cfg := range []Config{SmallConfig(), LargeConfig()} {
		h := cfg.HiddenDim
		model, err := NewModel(cfg)
		if err != nil {
			t.Fatal(err)
		}
		mlp := model.Layers[0].EdgeMLP
		w, b := mlp.Params()[0].W, mlp.Params()[1].W
		x, e := tensor.New(g.NumLocal(), h), tensor.New(g.NumEdges(), h)
		for _, m := range []*tensor.Matrix{x, e} {
			for i := range m.Data {
				m.Data[i] = rng.NormFloat64()
			}
		}
		split := splitPre(g, mlp.SplitFirst(edgeParts), x.Data, e.Data, h)
		concat := concatPre(g, w.Data, b.Data, x.Data, e.Data, h)
		x32, e32, w32, b32 := tensor.Demote32(x), tensor.Demote32(e), tensor.Demote32(w), tensor.Demote32(b)
		split32 := splitPre(g, mlp.Compile32().SplitFirst(edgeParts), x32.Data, e32.Data, h)
		concat32 := concatPre(g, w32.Data, b32.Data, x32.Data, e32.Data, h)
		for _, c := range []struct {
			what  string
			worst float64
			same  int
		}{
			{"float64", worstDecompositionError(g, w.Data, b.Data, x.Data, e.Data, split, concat, h, 0x1p-53),
				len(split) - sliceBitDiff(split, concat)},
			{"float32", worstDecompositionError(g, w32.Data, b32.Data, x32.Data, e32.Data, split32, concat32, h, 0x1p-24),
				len(split32) - sliceBitDiff(split32, concat32)},
		} {
			t.Logf("%s %s: worst error %.3f of the bound, %d of %d elements bitwise equal", cfg.Name, c.what, c.worst, c.same, len(split))
			if c.worst > 1 {
				t.Errorf("%s %s: the split pre-activation is %.3g bounds from the concatenated product", cfg.Name, c.what, c.worst)
			}
			if c.same == len(split) {
				t.Errorf("%s %s: every element equals the concatenated product bitwise: the head is not the decomposition", cfg.Name, c.what)
			}
		}
	}
}

// TestStandaloneLayerMatchesModelPath: NMPLayer.Forward, which projects x
// for its edge head in a region of its own, is bitwise the layer inside a
// model, whose x arrives projected by the previous node stage's tail —
// the one place the projection is computed twice — at SmallConfig's and
// LargeConfig's widths, on one rank and two, both split points. The model
// path is layer 0 run with layer 1's projection in its tail, then layer 1
// on what it produced; the standalone one is a parameter copy of layer 1
// without an arena, on layer 0's output.
func TestStandaloneLayerMatchesModelPath(t *testing.T) {
	box, err := mesh.NewBox(4, 3, 3, 2, [3]bool{true, true, true})
	if err != nil {
		t.Fatal(err)
	}
	for _, ranks := range []int{1, 2} {
		part, err := partition.NewCartesian(box, ranks, partition.Slabs)
		if err != nil {
			t.Fatal(err)
		}
		locals, err := graph.BuildAll(box, part)
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range []Config{SmallConfig(), LargeConfig()} {
			for _, overlap := range []bool{false, true} {
				name := fmt.Sprintf("%s/R%d/overlap=%v", cfg.Name, ranks, overlap)
				err := comm.Run(ranks, func(c *comm.Comm) error {
					rc, err := NewRankContext(c, box, locals[c.Rank()], comm.NeighborAllToAll)
					if err != nil {
						return err
					}
					g, h := rc.Graph, cfg.HiddenDim
					model, err := NewModel(cfg)
					if err != nil {
						return err
					}
					model.SetOverlap(overlap)
					l0, l1 := model.Layers[0], model.Layers[1]
					twin := NewNMPLayer("twin", h, cfg.MLPHiddenLayers, rand.New(rand.NewSource(1)))
					twin.Overlap = overlap
					for i, p := range l1.Params() {
						twin.Params()[i].W.CopyFrom(p.W)
					}

					rng := rand.New(rand.NewSource(int64(3 + c.Rank())))
					x, e := tensor.New(g.NumLocal(), h), tensor.New(g.NumEdges(), h)
					for _, m := range []*tensor.Matrix{x, e} {
						for i := range m.Data {
							m.Data[i] = rng.NormFloat64()
						}
					}
					pq0 := project(l0, &l0.projT, x, l0.edgeFirst())
					x1, e1, pq1 := l0.forward(rc, x, e, pq0, 1, l1.edgeFirst())
					x2, e2, _ := l1.forward(rc, x1, e1, pq1, 1, nn.SplitLinear[float64]{})
					sx, se := twin.Forward(rc, x1, e1)
					if d := bitDiff(sx, x2) + bitDiff(se, e2); d != 0 {
						return fmt.Errorf("standalone layer differs from the model path in %d values", d)
					}
					return nil
				})
				if err != nil {
					t.Errorf("%s: %v", name, err)
				}
			}
		}
	}
}

// TestEdgeBackwardDecomposition holds the layer's backward through the
// edge MLP's first Linear — the edge part per edge (de += dPre·W_2ᵀ,
// dW_2 += eᵀ·dPre, the bias), the node parts per node from dPre summed
// over each node's receiver and sender spans (dx += S_r·W_0ᵀ + S_s·W_1ᵀ,
// dW_0 += xᵀ·S_r, dW_1 += xᵀ·S_s) — to the concatenated per-edge backward
// it replaced: dEdgeIn = dPre·Wᵀ over the (x_i ‖ x_j ‖ e_ij) rows, its
// x_i and x_j thirds scattered to the receivers and senders, its e_ij
// third into de, and dW = inᵀ·dPre (tensor.MatMulATB) per sample, the
// bias by column sums. dPre, the node stage's part of dx and the residual
// part of de come from the serial reference, whose backward is the
// layer's bit for bit (TestNMPLayerMatchesSerialReference). At
// SmallConfig's and LargeConfig's widths, for 1 and 3 stacked samples,
// every element of dW_0, dW_1, dW_2, db, dx and de is within the rounding
// bound 2·(n+2)·u·Σ|terms| of the concatenated one, u = 2⁻⁵³: the two are
// the same sum of the same terms in exact arithmetic, and n bounds how
// often either side rounds a term on its way — 2h + d_r + d_s + 1 for a dx
// element of a node with d_r incoming and d_s outgoing edges, h + 1 for
// de, and the number of terms, batch·N_edges, for the weight and bias
// sums, which any summation tree of theirs is within. Not every element
// may match bitwise: a backward that still scattered the 3H-wide rows
// would, and this test would not be testing the decomposition.
func TestEdgeBackwardDecomposition(t *testing.T) {
	box, err := mesh.NewBox(4, 3, 3, 2, [3]bool{true, true, true})
	if err != nil {
		t.Fatal(err)
	}
	local, err := graph.BuildSingle(box)
	if err != nil {
		t.Fatal(err)
	}
	const u = 0x1p-53
	for _, cfg := range []Config{SmallConfig(), LargeConfig()} {
		for _, batch := range []int{1, 3} {
			name := fmt.Sprintf("%s/B%d", cfg.Name, batch)
			err := comm.Run(1, func(c *comm.Comm) error {
				rc, err := NewRankContext(c, box, local, comm.NeighborAllToAll)
				if err != nil {
					return err
				}
				g, h := rc.Graph, cfg.HiddenDim
				nl, ne := g.NumLocal(), g.NumEdges()
				layer := NewNMPLayer("t", h, cfg.MLPHiddenLayers, rand.New(rand.NewSource(5)))
				twin := NewNMPLayer("t", h, cfg.MLPHiddenLayers, rand.New(rand.NewSource(5)))
				ref := &serialNMP{edge: twin.EdgeMLP, node: twin.NodeMLP, rc: rc}
				rng := rand.New(rand.NewSource(17))
				random := func(rows int) *tensor.Matrix {
					m := tensor.New(rows, h)
					for i := range m.Data {
						m.Data[i] = rng.NormFloat64()
					}
					return m
				}
				x, e, dxOut, deOut := random(batch*nl), random(batch*ne), random(batch*nl), random(batch*ne)
				pq := project(layer, &layer.projT, x, layer.edgeFirst())
				layer.forward(rc, x, e, pq, batch, nn.SplitLinear[float64]{})
				dx, de := layer.Backward(dxOut, deOut)

				w := layer.EdgeMLP.Params()[0].W
				wT := tensor.New(h, 3*h)
				tensor.TransposeInto(wT, w)
				dW, dWMag := tensor.New(3*h, h), tensor.New(3*h, h)
				db, dbMag := make([]float64, h), make([]float64, h)
				var worst float64
				same, total := 0, 0
				check := func(got, want, mag float64, n int) {
					total++
					if math.Float64bits(got) == math.Float64bits(want) {
						same++
						return
					}
					bound := 2 * float64(n+2) * u * mag
					if bound == 0 {
						worst = math.Inf(1)
						return
					}
					worst = max(worst, math.Abs(got-want)/bound)
				}
				for b := 0; b < batch; b++ {
					xb, eb := x.RowBlock(b*nl, (b+1)*nl), e.RowBlock(b*ne, (b+1)*ne)
					ref.forward(xb, eb)
					ref.backward(dxOut.RowBlock(b*nl, (b+1)*nl), deOut.RowBlock(b*ne, (b+1)*ne))
					dPre := ref.dPre
					in := tensor.FromSlice(ne, 3*h, edgeInput(g, xb.Data, eb.Data, h))
					dEdgeIn, part := tensor.New(ne, 3*h), tensor.New(3*h, h)
					tensor.MatMul(dEdgeIn, dPre, wT)
					tensor.MatMulATB(part, in, dPre)
					tensor.AddTo(dW.Data, part.Data)
					for k := 0; k < ne; k++ {
						for o, v := range dPre.Row(k) {
							db[o] += v
							dbMag[o] += math.Abs(v)
							for i, a := range in.Row(k) {
								dWMag.Row(i)[o] += math.Abs(a * v)
							}
						}
					}
					// dx: the node stage's part, then the receiver thirds,
					// then the sender thirds, edge by edge.
					cdx, dxMag := ref.dxBase.Clone(), ref.dxBase.Clone()
					for i, v := range dxMag.Data {
						dxMag.Data[i] = math.Abs(v)
					}
					for q, node := range []int{1, 0} {
						for k, ed := range g.Edges {
							for j := 0; j < h; j++ {
								cdx.Row(ed[node])[j] += dEdgeIn.Row(k)[q*h+j]
								for o, v := range dPre.Row(k) {
									dxMag.Row(ed[node])[j] += math.Abs(v * wT.Row(o)[q*h+j])
								}
							}
						}
					}
					for i := 0; i < nl; i++ {
						n := 2*h + g.RecvStart[i+1] - g.RecvStart[i] + g.SendStart[i+1] - g.SendStart[i] + 1
						for j := 0; j < h; j++ {
							check(dx.Row(b*nl + i)[j], cdx.Row(i)[j], dxMag.Row(i)[j], n)
						}
					}
					for k := 0; k < ne; k++ {
						for j := 0; j < h; j++ {
							want := ref.dEOut.Row(k)[j] + dEdgeIn.Row(k)[2*h+j]
							mag := math.Abs(ref.dEOut.Row(k)[j])
							for o, v := range dPre.Row(k) {
								mag += math.Abs(v * wT.Row(o)[2*h+j])
							}
							check(de.Row(b*ne + k)[j], want, mag, h+1)
						}
					}
				}
				for i, v := range layer.EdgeMLP.Params()[0].G.Data {
					check(v, dW.Data[i], dWMag.Data[i], batch*ne)
				}
				for o, v := range layer.EdgeMLP.Params()[1].G.Data {
					check(v, db[o], dbMag[o], batch*ne)
				}
				t.Logf("%s: worst error %.3g of the bound, %d of %d elements bitwise equal", name, worst, same, total)
				if worst > 1 {
					return fmt.Errorf("the split backward is %.3g bounds from the concatenated one", worst)
				}
				if same == total {
					return fmt.Errorf("every element equals the concatenated backward bitwise: the backward is not the decomposition")
				}
				return nil
			})
			if err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}
	}
}
