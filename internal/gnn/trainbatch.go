package gnn

import (
	"fmt"
	"time"

	"meshgnn/internal/graph"
	"meshgnn/internal/nn"
	"meshgnn/internal/parallel"
	"meshgnn/internal/tensor"
)

// Batched training: B same-mesh samples stack as row blocks of one
// (B·N)×F matrix through the fused epoch — the training-side mirror of
// the block-diagonal inference batching (batch.go). The forward reuses
// the stacked inference tasks against the training MLPs (whose layers
// cache the stacked activations the backward needs); the backward runs
// the row-block adjoint: pure row maps (input-gradient GEMMs, ELU,
// per-row LayerNorm dx, gathers and owner-partitioned scatters) run over
// the full stack, while every reduction whose fixed chunk schedule
// derives from the row count — the weight/bias/gain/shift gradients and
// the per-sample loss sums — runs one sample block at a time in ascending
// sample order. Each block then reproduces the exact reduction geometry
// of an unbatched pass over that sample, so the accumulated B-sample
// gradient is bitwise-equal to the sequential B-step accumulation oracle
// (ZeroGrads once, then B Forward/Loss/Backward passes) for any thread
// count, rank count, transport, and overlap mode.
//
// The halo exchanges batch too: one frame per neighbor carries all B
// samples' boundary aggregates forward (Exchanger.ForwardBatched) and all
// B samples' halo-row gradients back (Exchanger.AdjointBatched), so the
// message count per step is batch-invariant.
//
// Amortization is the point: one optimizer step, one gradient AllReduce,
// one clip, one Param.Bump — and hence exactly one pack-cache
// invalidation and one repack per weight matrix — per B samples, instead
// of per sample.

// batchScatterTask is the stacked edge-input adjoint scatter: the
// row-block twin of tensor.ScatterAddRowsGroupedView. Index p decomposes
// into (sample b, destination node i); each destination row walks its CSR
// edge span in ascending order within its own sample block, so no two
// workers touch one row and every accumulation order matches the
// unbatched scatter on that sample.
type batchScatterTask struct {
	g     *graph.Local
	dst   *tensor.Matrix // (batch·N_local)×h
	src   tensor.View    // (batch·N_edges) rows
	start []int          // CSR over local nodes
	order []int          // nil (canonical) or the sender-grouped permutation
}

func (t *batchScatterTask) Run(lo, hi int) {
	g := t.g
	nl, ne := g.NumLocal(), g.NumEdges()
	for p := lo; p < hi; p++ {
		b, i := p/nl, p%nl
		dst := t.dst.Row(p)
		eo := b * ne
		for k := t.start[i]; k < t.start[i+1]; k++ {
			e := k
			if t.order != nil {
				e = t.order[k]
			}
			src := t.src.Row(eo + e)
			for j, v := range src {
				dst[j] += v
			}
		}
	}
}

// ForwardBatched applies the layer to batch vertically stacked samples:
// x is (batch·N_local)×H, e is (batch·N_edges)×H. Per sample block the
// arithmetic — and hence every bit — matches Forward on that sample; one
// batched halo exchange moves every sample's boundary aggregates. The
// layer caches the stacked activations for BackwardBatched.
func (l *NMPLayer) ForwardBatched(rc *RankContext, x, e *tensor.Matrix, batch int) (xOut, eOut *tensor.Matrix) {
	l.rc = rc
	l.batch = batch
	g := rc.Graph
	h := x.Cols
	nl, ne, nh := g.NumLocal(), g.NumEdges(), g.NumHalo()
	nb := g.NumBoundary

	// (4a) stacked edge update with residual.
	l.edgeIn = l.arena.Get(batch*ne, 3*h)
	l.bEdgeInT = batchEdgeInTask{g: g, x: x, e: e, out: l.edgeIn, h: h}
	parallel.ForTask(batch*ne, edgeGrain(h), &l.bEdgeInT)
	eOut = l.EdgeMLP.Forward(l.edgeIn)
	tensor.AddScaled(eOut, 1, e)

	// (4b)–(4d) over the stacked blocks.
	agg := l.arena.GetZeroed(batch*nl, h)
	l.haloRows = nh
	halo := l.arena.GetZeroed(batch*nh, h)
	l.nodeIn = l.arena.Get(batch*nl, 2*h)

	if l.Overlap {
		l.bAggT = batchAggTask{g: g, eOut: eOut, agg: agg,
			disableDeg: l.DisableDegreeScaling, nodes: g.NodeOrder[:nb]}
		parallel.ForTask(batch*nb, edgeGrain(h), &l.bAggT)
		rc.Ex.StartForwardBatched(rc.Comm, agg, halo, batch)

		l.bAggT.nodes = g.NodeOrder[nb:]
		parallel.ForTask(batch*(nl-nb), edgeGrain(h), &l.bAggT)
		l.bHCatT = batchHCatTask{agg: agg, x: x, out: l.nodeIn, h: h,
			nodes: g.NodeOrder[nb:], nl: nl}
		parallel.ForTask(batch*(nl-nb), edgeGrain(h), &l.bHCatT)

		rc.Ex.FinishForward(rc.Comm)
		l.bAbsorbT = batchAbsorbTask{g: g, agg: agg, halo: halo, nodes: g.NodeOrder[:nb]}
		parallel.ForTask(batch*nb, edgeGrain(h), &l.bAbsorbT)
		l.bHCatT.nodes = g.NodeOrder[:nb]
		parallel.ForTask(batch*nb, edgeGrain(h), &l.bHCatT)
	} else {
		l.bAggT = batchAggTask{g: g, eOut: eOut, agg: agg, disableDeg: l.DisableDegreeScaling}
		parallel.ForTask(batch*nl, edgeGrain(h), &l.bAggT)
		rc.Ex.ForwardBatched(rc.Comm, agg, halo, batch)
		l.bAbsorbT = batchAbsorbTask{g: g, agg: agg, halo: halo}
		parallel.ForTask(batch*nl, edgeGrain(h), &l.bAbsorbT)
		tensor.HCatInto(l.nodeIn, agg, x)
	}

	// (4e) stacked node update with residual.
	xOut = l.NodeMLP.Forward(l.nodeIn)
	tensor.AddScaled(xOut, 1, x)
	return xOut, eOut
}

// BackwardBatched propagates stacked gradients through the layer after a
// matching ForwardBatched. Parameter gradients accumulate into the MLPs
// per sample block in ascending order (bitwise the sequential oracle);
// the halo adjoint travels as one batched exchange.
func (l *NMPLayer) BackwardBatched(dxOut, deOut *tensor.Matrix) (dx, de *tensor.Matrix) {
	rc := l.rc
	g := rc.Graph
	h := dxOut.Cols
	batch := l.batch
	nl, ne := g.NumLocal(), g.NumEdges()

	// (4e) node update backward; residual passes dxOut straight through.
	dNodeIn := l.NodeMLP.BackwardBatched(dxOut, batch)
	dAgg := l.arena.Get(batch*nl, h)
	tensor.CopyViewInto(dAgg, dNodeIn.View(0, h))
	dx = l.arena.Get(dxOut.Rows, h)
	tensor.CloneInto(dx, dxOut)
	tensor.AddScaledView(dx, 1, dNodeIn.View(h, h))

	// (4d) synchronization backward: stacked halo-row gather.
	dHalo := l.arena.Get(batch*l.haloRows, h)
	l.bDHaloT = batchDHaloTask{g: g, dAgg: dAgg, dHalo: dHalo}
	parallel.ForTask(batch*l.haloRows, edgeGrain(h), &l.bDHaloT)

	// (4c) batched halo-swap adjoint and (4b) aggregation backward.
	dEOut := l.arena.Get(batch*ne, h)
	if l.Overlap {
		// Phased adjoint: the exchange only accumulates into boundary rows
		// within each sample block, so the interior-receiver gather runs
		// while the gradients fly — same split, same bits, per sample.
		rc.Ex.StartAdjointBatched(rc.Comm, dHalo, dAgg, batch)
		l.bDEOutT = batchDEOutTask{g: g, dAgg: dAgg, dOut: dEOut,
			disableDeg: l.DisableDegreeScaling,
			edges:      g.EdgeOrder[g.NumBoundaryEdges:], deOut: deOut}
		parallel.ForTask(batch*(ne-g.NumBoundaryEdges), edgeGrain(h), &l.bDEOutT)
		rc.Ex.FinishAdjointBatched(rc.Comm)
		l.bDEOutT.edges = g.EdgeOrder[:g.NumBoundaryEdges]
		parallel.ForTask(batch*g.NumBoundaryEdges, edgeGrain(h), &l.bDEOutT)
	} else {
		rc.Ex.AdjointBatched(rc.Comm, dHalo, dAgg, batch)
		l.bDEOutT = batchDEOutTask{g: g, dAgg: dAgg, dOut: dEOut, disableDeg: l.DisableDegreeScaling}
		parallel.ForTask(batch*ne, edgeGrain(h), &l.bDEOutT)
		tensor.AddScaled(dEOut, 1, deOut)
	}

	// (4a) edge update backward; residual passes dEOut to de.
	dEdgeIn := l.EdgeMLP.BackwardBatched(dEOut, batch)
	de = l.arena.Get(batch*ne, h)
	tensor.CloneInto(de, dEOut)
	tensor.AddScaledView(de, 1, dEdgeIn.View(2*h, h))
	l.bScatT = batchScatterTask{g: g, dst: dx, src: dEdgeIn.View(0, h), start: g.RecvStart}
	parallel.ForTask(batch*nl, edgeGrain(h), &l.bScatT)
	l.bScatT.src = dEdgeIn.View(h, h)
	l.bScatT.start, l.bScatT.order = g.SendStart, g.SendPerm
	parallel.ForTask(batch*nl, edgeGrain(h), &l.bScatT)
	return dx, de
}

// batchDHaloTask is the stacked synchronization adjoint: each halo row's
// gradient is its owner's aggregate gradient within the same sample
// block — a pure gather, every halo row written once.
type batchDHaloTask struct {
	g           *graph.Local
	dAgg, dHalo *tensor.Matrix
}

func (t *batchDHaloTask) Run(lo, hi int) {
	g := t.g
	nl, nh := g.NumLocal(), g.NumHalo()
	for p := lo; p < hi; p++ {
		b, hr := p/nh, p%nh
		copy(t.dHalo.Row(p), t.dAgg.Row(b*nl+g.HaloOwner[hr]))
	}
}

// batchDEOutTask is the stacked aggregation backward: de_k = dAgg[dst_k]
// / d_k gathered within each sample block, with the upstream deOut folded
// per edge on the phased path (two separately rounded steps, like the
// synchronous gather followed by tensor.AddScaled).
type batchDEOutTask struct {
	g          *graph.Local
	dAgg, dOut *tensor.Matrix
	disableDeg bool
	edges      []int
	deOut      *tensor.Matrix
}

func (t *batchDEOutTask) Run(lo, hi int) {
	g := t.g
	nl, ne := g.NumLocal(), g.NumEdges()
	count := ne
	if t.edges != nil {
		count = len(t.edges)
	}
	for p := lo; p < hi; p++ {
		b, q := p/count, p%count
		k := q
		if t.edges != nil {
			k = t.edges[q]
		}
		src := t.dAgg.Row(b*nl + g.Edges[k][1])
		dst := t.dOut.Row(b*ne + k)
		inv := 1.0
		if !t.disableDeg {
			inv = 1 / g.EdgeDegree[k]
		}
		for j, v := range src {
			dst[j] = inv * v
		}
		if t.deOut != nil {
			for j, v := range t.deOut.Row(b*ne + k) {
				dst[j] += v
			}
		}
	}
}

// forwardBatched evaluates the GNN on batch stacked snapshots of this
// rank's sub-graph, returning the (batch·N_local)×OutputNodeFeatures
// stacked prediction. The result is arena-owned: valid until the next
// forward pass begins (it only needs to survive into the loss and the
// matching backwardBatched). All ranks must call collectively with the
// same batch size.
func (m *Model) forwardBatched(rc *RankContext, xs []*tensor.Matrix) *tensor.Matrix {
	batch := len(xs)
	if batch == 0 {
		panic("gnn: batched forward with an empty batch")
	}
	for _, x := range xs {
		if x.Rows != rc.Graph.NumLocal() || x.Cols != m.Config.InputNodeFeatures {
			panic(fmt.Sprintf("gnn: batched input %dx%d, want %dx%d",
				x.Rows, x.Cols, rc.Graph.NumLocal(), m.Config.InputNodeFeatures))
		}
	}
	for _, l := range m.Layers {
		if _, ok := l.(*NMPLayer); !ok {
			panic("gnn: batched training requires NMP processor layers (no attention)")
		}
	}
	rows, cols := xs[0].Rows, xs[0].Cols
	if rc.Graph != m.lastGraph || batch*rows != m.lastRows || cols != m.lastCols || m.lastBatch != batch {
		m.arena.Clear()
		m.lastGraph, m.lastRows, m.lastCols, m.lastBatch = rc.Graph, batch*rows, cols, batch
		m.staticEdgeB = nil
	}
	if m.xb == nil || m.xb.Rows != batch*rows || m.xb.Cols != cols {
		m.xb = tensor.New(batch*rows, cols)
	}
	n := rows * cols
	for i, x := range xs {
		copy(m.xb.Data[i*n:(i+1)*n], x.Data)
	}

	m.arena.Reset()
	hx := m.NodeEncoder.Forward(m.xb)
	ne := rc.Graph.NumEdges()
	var he *tensor.Matrix
	if m.Config.EdgeMode == EdgeFeatures4 {
		// The raw static-edge attributes tile per sample so the encoder's
		// cached input — which its backward slices per block — is stacked
		// like every other activation.
		if m.staticEdgeB == nil {
			m.staticEdgeB = tensor.New(batch*ne, int(EdgeFeatures4))
			tensor.TileRowsInto(m.staticEdgeB, rc.StaticEdge, batch)
		}
		he = m.EdgeEncoder.Forward(m.staticEdgeB)
	} else {
		var ei *tensor.Matrix
		if cols >= 3 {
			ei = m.arena.Get(batch*ne, int(EdgeFeatures7))
		} else {
			ei = m.arena.GetZeroed(batch*ne, int(EdgeFeatures7))
		}
		m.beiT = batchEdgeInputsTask{rc: rc, x: m.xb, out: ei}
		parallel.ForTask(batch*ne, 512, &m.beiT)
		he = m.EdgeEncoder.Forward(ei)
	}
	m.lastNe = ne
	for _, l := range m.Layers {
		hx, he = l.(*NMPLayer).ForwardBatched(rc, hx, he, batch)
	}
	return m.Decoder.Forward(hx)
}

// backwardBatched propagates the stacked output gradient through the
// model after a matching forwardBatched, accumulating parameter gradients
// bitwise-equal to batch sequential Backward passes.
func (m *Model) backwardBatched(dy *tensor.Matrix, batch int) {
	dhx := m.Decoder.BackwardBatched(dy, batch)
	dhe := m.arena.GetZeroed(batch*m.lastNe, m.Config.HiddenDim)
	for i := len(m.Layers) - 1; i >= 0; i-- {
		dhx, dhe = m.Layers[i].(*NMPLayer).BackwardBatched(dhx, dhe)
	}
	m.EdgeEncoder.BackwardBatched(dhe, batch)
	m.NodeEncoder.BackwardBatched(dhx, batch)
}

// StepBatch executes one training iteration over len(xs) stacked samples:
// one fused forward, one row-block backward, one AllReduce (the gradients
// with the B local loss sums in the buffer's tail), one clip, ONE
// optimizer step (and hence one Param.Bump — the pack caches
// invalidate once per step, not once per sample). The accumulated
// gradient is bitwise-equal to the sequential oracle that runs ZeroGrads
// once and then Forward/Loss/Backward per sample before the same single
// AllReduce + clip + optimizer step. Returns the per-sample consistent
// losses in a trainer-owned buffer, valid until the next step. All ranks
// must call StepBatch collectively with the same batch size.
func (t *Trainer) StepBatch(rc *RankContext, xs, targets []*tensor.Matrix) []float64 {
	if len(xs) == 0 || len(xs) != len(targets) {
		panic(fmt.Sprintf("gnn: StepBatch with %d inputs, %d targets", len(xs), len(targets)))
	}
	if len(xs) == 1 {
		// The B=1 stacked pass is bitwise Step anyway; run Step itself so
		// the two paths share one arena recording.
		loss := t.Step(rc, xs[0], targets[0])
		t.batchLoss = append(t.batchLoss[:0], loss)
		return t.batchLoss
	}
	mark := time.Now()
	var haloBase, exposedBase float64
	if t.Timing != nil {
		haloBase = rc.Comm.Stats.HaloSeconds
		exposedBase = rc.Comm.Stats.HaloExposedSeconds
	}
	lap := func(dst *time.Duration) {
		if t.Timing != nil {
			now := time.Now()
			d := now.Sub(mark)
			if h := rc.Comm.Stats.HaloSeconds; h > haloBase {
				hd := time.Duration((h - haloBase) * float64(time.Second))
				t.Timing.Halo += hd
				d -= hd
				haloBase = h
			}
			if d > 0 {
				*dst += d
			}
			mark = now
		}
	}
	batch := len(xs)
	t.Model.ZeroGrads()
	y := t.Model.forwardBatched(rc, xs)
	if t.Timing != nil {
		lap(&t.Timing.Forward)
	}
	sums := t.Loss.localSums(rc, y, targets)
	if t.Timing != nil {
		lap(&t.Timing.Loss)
	}
	t.Model.backwardBatched(t.Loss.Backward(), batch)
	if t.Timing != nil {
		lap(&t.Timing.Backward)
	}
	losses := t.Loss.normalise(t.reduceGrads(rc, sums))
	if t.Timing != nil {
		lap(&t.Timing.AllReduce)
	}
	if t.ClipNorm > 0 {
		nn.ClipGradNorm(t.Model.Params(), t.ClipNorm)
	}
	if t.Schedule != nil {
		if s, ok := t.Opt.(nn.LRSettable); ok {
			s.SetLR(t.Schedule.LR(t.step))
		}
	}
	t.Opt.Step(t.Model.Params())
	if t.Timing != nil {
		lap(&t.Timing.Optimizer)
		if e := rc.Comm.Stats.HaloExposedSeconds; e > exposedBase {
			t.Timing.HaloExposed += time.Duration((e - exposedBase) * float64(time.Second))
		}
		t.Timing.Steps++
	}
	t.step++
	t.batchLoss = append(t.batchLoss[:0], losses...)
	return t.batchLoss
}
