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
//
// Its (4a) is the edge MLP with the first Linear written out by its
// definition — the sum of the input parts' products, the node parts
// multiplied once per node (serialPre) — not the Linear on the
// concatenated row: the layer evaluates it that way, which equals the
// concatenation's product in exact arithmetic but rounds differently.
type serialNMP struct {
	edge, node *nn.MLP
	rc         *RankContext
}

func (s *serialNMP) forward(x, e *tensor.Matrix) (xOut, eOut *tensor.Matrix) {
	g, h := s.rc.Graph, x.Cols
	ne := g.NumEdges()
	edgeIn := tensor.New(ne, 3*h)
	for k, ed := range g.Edges {
		row := edgeIn.Row(k)
		copy(row[:h], x.Row(ed[1]))
		copy(row[h:2*h], x.Row(ed[0]))
		copy(row[2*h:], e.Row(k))
	}
	w, b := s.edge.Params()[0].W, s.edge.Params()[1].W // the first Linear
	pre := serialPre(g, h, x.Data, e.Data, w.Data, b.Data)
	// (4a): the block from its first ELU on; the input rows are only the
	// weight gradient's cache.
	eOut = s.edge.ForwardPre(ne, &fullPre[float64]{in: edgeIn.Data, pre: pre, h: h}, nil).Clone()
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
	nodeIn := tensor.New(g.NumLocal(), 2*h)
	for i := 0; i < g.NumLocal(); i++ {
		copy(nodeIn.Row(i), agg.Row(i))
		copy(nodeIn.Row(i)[h:], x.Row(i))
	}
	xOut = s.node.Forward(nodeIn).Clone() // (4e)
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

// serialPre is the edge MLP's first Linear over one sample by its
// definition: with W_0, W_1, W_2 the row blocks of w that multiply x_i, x_j
// and e_ij, the whole-matrix products P = x·W_0, Q = x·W_1 and e·W_2
// (tensor's one product definition), the bias added to the last, then per
// edge and element pre = (e·W_2 + b) + (P_i + Q_j), i the receiver and j
// the sender — two rounded adds in that order, plain loops.
func serialPre[T elem](g *graph.Local, h int, x, e, w, b []T) []T {
	nl, ne := g.NumLocal(), g.NumEdges()
	product := func(a []T, rows, part int) []T {
		out, wp := make([]T, rows*h), w[part*h*h:(part+1)*h*h]
		switch o := any(out).(type) {
		case []float64:
			tensor.MatMul(tensor.FromSlice(rows, h, o), tensor.FromSlice(rows, h, any(a).([]float64)),
				tensor.FromSlice(h, h, any(wp).([]float64)))
		case []float32:
			tensor.MatMul32(&tensor.Matrix32{Rows: rows, Cols: h, Data: o},
				&tensor.Matrix32{Rows: rows, Cols: h, Data: any(a).([]float32)},
				&tensor.Matrix32{Rows: h, Cols: h, Data: any(wp).([]float32)})
		}
		return out
	}
	p, q, pre := product(x, nl, 0), product(x, nl, 1), product(e, ne, 2)
	for k, ed := range g.Edges {
		for j := 0; j < h; j++ {
			pre[k*h+j] += b[j]
			pre[k*h+j] += p[ed[1]*h+j] + q[ed[0]*h+j]
		}
	}
	return pre
}

// fullPre is a PreHead over full-height matrices: rows of the serial
// reference's first-Linear output pre and, where the block caches it, of
// the Linear's input in (3h wide).
type fullPre[T elem] struct {
	in, pre []T
	h       int
}

func (f *fullPre[T]) PreRows(x, y []T, r0, r1 int) {
	if x != nil {
		copy(x, f.in[r0*3*f.h:r1*3*f.h])
	}
	copy(y, f.pre[r0*f.h:r1*f.h])
}

// serialInferNMP is the forward half of serialNMP for the serving adapters,
// one sample at a time in element type T: the first Linear's output of the
// edge MLP (serialPre over w and b, the compile's weights in T) and the
// (a* ‖ x) input are materialised at full height with plain loops and
// handed to edge — the compiled edge block from its first ELU on — and
// node — the compiled block's head-less whole-matrix entry point — and the
// aggregates cross the float64 wire the way a float32 session stages them
// (convert, exchange, convert back; the identity at float64).
func serialInferNMP[T elem](rc *RankContext, h int, x, e, w, b []T, edge func(pre []T) []T, node func(in []T, cols int) []T) (xOut, eOut []T) {
	g := rc.Graph
	nl, nh := g.NumLocal(), g.NumHalo()
	eOut = edge(serialPre(g, h, x, e, w, b)) // (4a)
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
	model, err := NewModel(cfg)
	if err != nil {
		return err
	}
	eng64, err := NewInference(model)
	if err != nil {
		return err
	}
	model.Config.Precision = Float32
	eng32, err := NewInference(model)
	if err != nil {
		return err
	}
	w, bias := model.Layers[0].EdgeMLP.Params()[0].W, model.Layers[0].EdgeMLP.Params()[1].W
	w32, bias32 := tensor.Demote32(w), tensor.Demote32(bias)

	// The adapters as the engine drives them, but for the projection of
	// the random x, which no encoder produced here: the standalone region.
	u64 := eng64.p64
	u64.bind(rc, batch, true)
	u64.begin()
	pq := project(u64, new(projectTask[float64]), x, edgeFirstOf[float64](u64.core.layers, 0))
	xOut, eOut, _ := u64.process(rc, 0, x, e, pq, batch, overlap)
	l64 := &u64.core.layers[0]
	u32 := eng32.p32
	u32.bind(rc, batch, true)
	u32.begin()
	x32, e32 := tensor.Demote32(x), tensor.Demote32(e)
	pq32 := project(u32, new(projectTask[float32]), x32, edgeFirstOf[float32](u32.core.layers, 0))
	xOut32, eOut32, _ := u32.process(rc, 0, x32, e32, pq32, batch, overlap)
	l32 := &u32.core.layers[0]

	for b := 0; b < batch; b++ {
		rx, re := serialInferNMP(rc, h, x.Data[b*nl*h:(b+1)*nl*h], e.Data[b*ne*h:(b+1)*ne*h], w.Data, bias.Data,
			func(pre []float64) []float64 {
				return l64.edgeMLP.InferPre(nil, ne, &fullPre[float64]{pre: pre, h: h}, nil).Data
			},
			func(in []float64, cols int) []float64 {
				return l64.nodeMLP.InferForward(nil, tensor.FromSlice(len(in)/cols, cols, in)).Data
			})
		rx32, re32 := serialInferNMP(rc, h, x32.Data[b*nl*h:(b+1)*nl*h], e32.Data[b*ne*h:(b+1)*ne*h], w32.Data, bias32.Data,
			func(pre []float32) []float32 {
				return l32.edgeMLP.InferPre32(nil, ne, &fullPre[float32]{pre: pre, h: h}, nil).Data
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

						pq := project(layer, &layer.projT, x, layer.edgeFirst())
						xOut, eOut, _ := layer.forward(rc, x, e, pq, batch, nn.SplitLinear[float64]{})
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
