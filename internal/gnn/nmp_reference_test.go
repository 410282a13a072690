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

// serialInferNMP is the forward half of serialNMP for the serving adapters,
// one sample at a time in element type T: the (x_i ‖ x_j ‖ e_ij) and
// (a* ‖ x) inputs are materialised at full height with plain loops and
// handed to edge and node — the compiled blocks' head-less whole-matrix
// entry points — and the aggregates cross the float64 wire the way a
// float32 session stages them (convert, exchange, convert back; the
// identity at float64).
func serialInferNMP[T elem](rc *RankContext, h int, x, e []T, edge, node func(in []T, cols int) []T) (xOut, eOut []T) {
	g := rc.Graph
	nl, ne, nh := g.NumLocal(), g.NumEdges(), g.NumHalo()
	edgeIn := make([]T, ne*3*h)
	for k, ed := range g.Edges {
		row := edgeIn[k*3*h : (k+1)*3*h]
		copy(row[:h], x[ed[1]*h:(ed[1]+1)*h])
		copy(row[h:2*h], x[ed[0]*h:(ed[0]+1)*h])
		copy(row[2*h:], e[k*h:(k+1)*h])
	}
	eOut = edge(edgeIn, 3*h) // (4a)
	for i, v := range e {
		eOut[i] += v
	}
	agg := make([]T, nl*h)
	for k, ed := range g.Edges { // (4b)
		inv := T(1 / g.EdgeDegree[k])
		for j := 0; j < h; j++ {
			agg[ed[1]*h+j] += inv * eOut[k*h+j]
		}
	}
	wire, halo := tensor.New(nl, h), tensor.New(nh, h)
	for i, v := range agg {
		wire.Data[i] = float64(v)
	}
	rc.Ex.Exchange(rc.Comm, comm.Forward, wire, halo, 1) // (4c)
	for hr, owner := range g.HaloOwner {                 // (4d)
		for j, v := range halo.Row(hr) {
			agg[owner*h+j] += T(v)
		}
	}
	nodeIn := make([]T, nl*2*h)
	for i := 0; i < nl; i++ {
		copy(nodeIn[i*2*h:], agg[i*h:(i+1)*h])
		copy(nodeIn[i*2*h+h:], x[i*h:(i+1)*h])
	}
	xOut = node(nodeIn, 2*h) // (4e)
	for i, v := range x {
		xOut[i] += v
	}
	return xOut, eOut
}

// servingMatchesSerial drives the two serving adapters (pass64, pass32) the
// way the engine does — bind, begin, process layer 0 — on batch stacked
// random hidden features of cfg's width, and compares each sample block
// with serialInferNMP over the same compiled blocks.
func servingMatchesSerial(rc *RankContext, cfg Config, batch int, overlap bool, rng *rand.Rand) error {
	g, h := rc.Graph, cfg.HiddenDim
	nl, ne := g.NumLocal(), g.NumEdges()
	x, e := tensor.New(batch*nl, h), tensor.New(batch*ne, h)
	for _, m := range []*tensor.Matrix{x, e} {
		for i := range m.Data {
			m.Data[i] = rng.NormFloat64()
		}
	}
	engine := func(prec Precision) (*Inference, error) {
		cfg.Precision = prec
		model, err := NewModel(cfg)
		if err != nil {
			return nil, err
		}
		return NewInference(model)
	}
	eng64, err := engine(Float64)
	if err != nil {
		return err
	}
	eng32, err := engine(Float32)
	if err != nil {
		return err
	}

	u64 := eng64.p64
	u64.bind(rc, batch, true)
	u64.begin()
	xOut, eOut := u64.process(rc, 0, x, e, batch, overlap)
	l64 := &u64.core.layers[0]
	u32 := eng32.p32
	u32.bind(rc, batch, true)
	u32.begin()
	x32, e32 := tensor.Demote32(x), tensor.Demote32(e)
	xOut32, eOut32 := u32.process(rc, 0, x32, e32, batch, overlap)
	l32 := &u32.core.layers[0]

	for b := 0; b < batch; b++ {
		rx, re := serialInferNMP(rc, h, x.Data[b*nl*h:(b+1)*nl*h], e.Data[b*ne*h:(b+1)*ne*h],
			func(in []float64, cols int) []float64 {
				return l64.edgeMLP.InferForward(nil, tensor.FromSlice(len(in)/cols, cols, in)).Data
			},
			func(in []float64, cols int) []float64 {
				return l64.nodeMLP.InferForward(nil, tensor.FromSlice(len(in)/cols, cols, in)).Data
			})
		rx32, re32 := serialInferNMP(rc, h, x32.Data[b*nl*h:(b+1)*nl*h], e32.Data[b*ne*h:(b+1)*ne*h],
			func(in []float32, cols int) []float32 {
				return l32.edgeMLP.InferForward32(nil, &tensor.Matrix32{Rows: len(in) / cols, Cols: cols, Data: in}).Data
			},
			func(in []float32, cols int) []float32 {
				return l32.nodeMLP.InferForward32(nil, &tensor.Matrix32{Rows: len(in) / cols, Cols: cols, Data: in}).Data
			})
		for what, d := range map[string]int{
			"float64 xOut": sliceBitDiff(xOut.Data[b*nl*h:(b+1)*nl*h], rx),
			"float64 eOut": sliceBitDiff(eOut.Data[b*ne*h:(b+1)*ne*h], re),
			"float32 xOut": sliceBitDiff(xOut32.Data[b*nl*h:(b+1)*nl*h], rx32),
			"float32 eOut": sliceBitDiff(eOut32.Data[b*ne*h:(b+1)*ne*h], re32),
		} {
			if d != 0 {
				return fmt.Errorf("%s serving, sample %d %s: %d values differ bitwise", cfg.Name, b, what, d)
			}
		}
	}
	return nil
}

// sliceBitDiff counts differing bit patterns (float32 widens exactly).
func sliceBitDiff[T elem](a, b []T) int {
	if len(a) != len(b) {
		return len(a) + len(b)
	}
	d := 0
	for i := range a {
		if math.Float64bits(float64(a[i])) != math.Float64bits(float64(b[i])) {
			d++
		}
	}
	return d
}

// TestNMPLayerMatchesSerialReference holds the one NMP layer — outputs,
// input gradients and accumulated parameter gradients of the training
// layer, and the outputs of both serving adapters at SmallConfig width and
// at LargeConfig width — bitwise against the serial
// reference, over batch (1–4) × split point × threads (1, 2, 4) × ranks.
// The other sweeps compare the layer with itself at other settings; this
// one compares it with something that shares none of its schedule: no
// head, no tail, no task, every input a full-height matrix. That includes
// where a row's aggregate (4b) is summed — by the region before the
// exchange (the boundary prefix), by the region inside it (the interior,
// phased), or by the node stage's head straight into the node MLP's input
// panel (the interior, synchronous; every row on one rank) — which the
// reference does in one edge sweep into a full-height matrix.
//
// Under the race detector, which CI runs at -cpu 1,2,4, the sweep is
// threads {1, 4} × batch {1, 3}: one thread and contention, one sample and
// a stack with a remainder. The full sweep is the plain run's.
func TestNMPLayerMatchesSerialReference(t *testing.T) {
	defer parallel.Configure(0, true)
	const h = 6
	threadCounts, batches := []int{1, 2, 4}, []int{1, 2, 3, 4}
	if raceEnabled {
		threadCounts, batches = []int{1, 4}, []int{1, 3}
	}
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
		for _, threads := range threadCounts {
			parallel.Configure(threads, true)
			for _, overlap := range []bool{false, true} {
				for _, batch := range batches {
					name := fmt.Sprintf("R%d/T%d/overlap=%v/B%d", ranks, threads, overlap, batch)
					err := comm.Run(ranks, func(c *comm.Comm) error {
						rc, err := NewRankContext(c, box, locals[c.Rank()], comm.NeighborAllToAll)
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
						for _, cfg := range []Config{SmallConfig(), LargeConfig()} {
							if err := servingMatchesSerial(rc, cfg, batch, overlap, rng); err != nil {
								return err
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
