package gnn

import (
	"fmt"
	"math/rand"
	"testing"

	"meshgnn/internal/comm"
	"meshgnn/internal/graph"
	"meshgnn/internal/mesh"
	"meshgnn/internal/nn"
	"meshgnn/internal/parallel"
	"meshgnn/internal/partition"
	"meshgnn/internal/tensor"
)

// serialNMP is a task-free, one-sample-at-a-time spelling of Eq. 4 and its
// adjoint: plain loops over g.Edges, one nn.MLP pass per sample, one
// batch-1 exchange per sample. It is what the layer's schedule, tasks,
// batching and split point must reproduce bit for bit.
type serialNMP struct {
	edge, node *nn.MLP
	rc         *RankContext
}

func (s *serialNMP) forward(x, e *tensor.Matrix) (xOut, eOut *tensor.Matrix) {
	g, h := s.rc.Graph, x.Cols
	edgeIn := tensor.New(g.NumEdges(), 3*h)
	for k, ed := range g.Edges {
		row := edgeIn.Row(k)
		copy(row[:h], x.Row(ed[1]))
		copy(row[h:2*h], x.Row(ed[0]))
		copy(row[2*h:], e.Row(k))
	}
	eOut = s.edge.Forward(edgeIn).Clone() // (4a)
	for i, v := range e.Data {
		eOut.Data[i] += v
	}
	agg, halo := tensor.New(g.NumLocal(), h), tensor.New(g.NumHalo(), h)
	for k, ed := range g.Edges { // (4b)
		inv := 1 / g.EdgeDegree[k]
		for j, v := range eOut.Row(k) {
			agg.Row(ed[1])[j] += inv * v
		}
	}
	s.rc.Ex.Exchange(s.rc.Comm, comm.Forward, agg, halo, 1) // (4c)
	for hr, owner := range g.HaloOwner {                    // (4d)
		for j, v := range halo.Row(hr) {
			agg.Row(owner)[j] += v
		}
	}
	xOut = s.node.Forward(tensor.HCat(agg, x)).Clone() // (4e)
	for i, v := range x.Data {
		xOut.Data[i] += v
	}
	return xOut, eOut
}

func (s *serialNMP) backward(dxOut, deOut *tensor.Matrix) (dx, de *tensor.Matrix) {
	g, h := s.rc.Graph, dxOut.Cols
	dNodeIn := s.node.Backward(dxOut)
	dAgg, dx := tensor.New(g.NumLocal(), h), tensor.New(g.NumLocal(), h)
	for i := 0; i < g.NumLocal(); i++ {
		copy(dAgg.Row(i), dNodeIn.Row(i)[:h])
		for j := range dx.Row(i) {
			dx.Row(i)[j] = dxOut.Row(i)[j] + dNodeIn.Row(i)[h+j]
		}
	}
	dHalo := tensor.New(g.NumHalo(), h)
	for hr, owner := range g.HaloOwner {
		copy(dHalo.Row(hr), dAgg.Row(owner))
	}
	s.rc.Ex.Exchange(s.rc.Comm, comm.Adjoint, dHalo, dAgg, 1)
	dEOut := tensor.New(g.NumEdges(), h)
	for k, ed := range g.Edges {
		inv := 1 / g.EdgeDegree[k]
		for j, v := range dAgg.Row(ed[1]) {
			dEOut.Row(k)[j] = inv * v
			dEOut.Row(k)[j] += deOut.Row(k)[j]
		}
	}
	dEdgeIn := s.edge.Backward(dEOut)
	de = tensor.New(g.NumEdges(), h)
	for k := range g.Edges {
		for j := range de.Row(k) {
			de.Row(k)[j] = dEOut.Row(k)[j] + dEdgeIn.Row(k)[2*h+j]
		}
	}
	for _, half := range []int{1, 0} { // receiver-side scatter, then sender-side
		for k, ed := range g.Edges {
			for j := 0; j < h; j++ {
				dx.Row(ed[half])[j] += dEdgeIn.Row(k)[(1-half)*h+j]
			}
		}
	}
	return dx, de
}

// TestNMPLayerMatchesSerialReference holds the one NMP layer — outputs,
// input gradients and accumulated parameter gradients — bitwise against
// the serial reference, over batch × split point × threads × ranks. The
// other sweeps compare the layer with itself at other settings; this one
// compares it with something that shares none of its code.
func TestNMPLayerMatchesSerialReference(t *testing.T) {
	defer parallel.Configure(0, true)
	const h = 6
	box, err := mesh.NewBox(4, 3, 3, 2, [3]bool{true, true, true})
	if err != nil {
		t.Fatal(err)
	}
	random := func(rng *rand.Rand, rows int) *tensor.Matrix {
		m := tensor.New(rows, h)
		for i := range m.Data {
			m.Data[i] = rng.NormFloat64()
		}
		return m
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
		for _, threads := range []int{1, 4} {
			parallel.SetOversubscribe(true)
			parallel.Configure(threads, true)
			for _, overlap := range []bool{false, true} {
				for _, batch := range []int{1, 3} {
					name := fmt.Sprintf("R%d/T%d/overlap=%v/B%d", ranks, threads, overlap, batch)
					err := comm.Run(ranks, func(c *comm.Comm) error {
						rc, err := NewRankContext(c, box, locals[c.Rank()], comm.SendRecvMode)
						if err != nil {
							return err
						}
						g := rc.Graph
						layer := NewNMPLayer("t", h, 1, rand.New(rand.NewSource(5)))
						layer.Overlap = overlap
						twin := NewNMPLayer("t", h, 1, rand.New(rand.NewSource(5)))
						ref := &serialNMP{edge: twin.EdgeMLP, node: twin.NodeMLP, rc: rc}

						rng := rand.New(rand.NewSource(int64(7 + c.Rank())))
						nl, ne := g.NumLocal(), g.NumEdges()
						x, e := random(rng, batch*nl), random(rng, batch*ne)
						dxOut, deOut := random(rng, batch*nl), random(rng, batch*ne)

						xOut, eOut := layer.forward(rc, x, e, batch)
						dx, de := layer.Backward(dxOut, deOut)
						for b := 0; b < batch; b++ {
							node := func(m *tensor.Matrix) *tensor.Matrix { return m.RowBlock(b*nl, (b+1)*nl) }
							edge := func(m *tensor.Matrix) *tensor.Matrix { return m.RowBlock(b*ne, (b+1)*ne) }
							rx, re := ref.forward(node(x), edge(e))
							rdx, rde := ref.backward(node(dxOut), edge(deOut))
							for what, d := range map[string]int{
								"xOut": bitDiff(node(xOut), rx), "eOut": bitDiff(edge(eOut), re),
								"dx": bitDiff(node(dx), rdx), "de": bitDiff(edge(de), rde),
							} {
								if d != 0 {
									return fmt.Errorf("sample %d %s: %d values differ bitwise", b, what, d)
								}
							}
						}
						for i, p := range layer.Params() {
							if d := bitDiff(p.G, twin.Params()[i].G); d != 0 {
								return fmt.Errorf("gradient of %s: %d values differ bitwise", p.Name, d)
							}
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
}
