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
	head := &edgeHeadTask[T]{g: g, x: rowsOf[T]{x, h}, e: rowsOf[T]{e, h},
		p: rowsOf[T]{p, h}, q: rowsOf[T]{q, h}, first: first}
	head.PreRows(nil, pre, 0, ne)
	return pre
}

// concatPre is the paper's first Linear: the (x_i ‖ x_j ‖ e_ij) rows
// gathered, times the whole 3H×H weight, plus the bias, by the linear
// layer's kernel.
func concatPre[T elem](g *graph.Local, w, b, x, e []T, h int) []T {
	ne := g.NumEdges()
	in, out := make([]T, ne*3*h), make([]T, ne*h)
	tensor.GatherEdgeRows(in, x, e, g.Edges, h)
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
