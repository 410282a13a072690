package gnn

import (
	"fmt"

	"meshgnn/internal/graph"
	"meshgnn/internal/tensor"
)

// Block-diagonal graph batching: B node snapshots that share one mesh are
// evaluated as a single stacked problem. Node features concatenate
// vertically into a (B·N_local)×F matrix — batch as a leading row-block
// dimension, not a loop — and likewise edge features, aggregates, and
// halo staging, through the same processors Predict drives at batch 1
// (nmp.go: every kernel is row-wise, so sample b of the stacked result is
// bitwise-identical to an unbatched Predict of sample b). Batching buys
// amortization — one GEMM sweep per layer, one kernel-dispatch round, one
// halo frame per neighbor carrying all B samples — and changes no bit.
//
// The batched path keeps its own arena (the record/replay sequence has
// different shapes than the unbatched epoch's), its own double-buffered
// stacked output, and a tiled copy of the static-edge encoding, all bound
// to the (graph, B, shape) tuple exactly like the unbatched binding.

// inferBatch is the batched serving state hanging off an Inference.
type inferBatch struct {
	arena *tensor.Arena
	// xb is the persistent stacked input the B samples are copied into.
	xb *tensor.Matrix
	// outs double-buffers the stacked prediction; hdrs are the per-sample
	// row-block headers into each buffer (returned to callers, so a
	// sample's result obeys the same valid-through-one-subsequent-call
	// contract as Predict).
	outs   [2]*tensor.Matrix
	hdrs   [2][]*tensor.Matrix
	outIdx int
	// staticHeB is the batch-tiled static-edge encoding (EdgeFeatures4):
	// the per-(graph,params) cache of the unbatched engine, stamped B
	// times so the stacked residual add sees per-sample copies.
	staticHeB *tensor.Matrix
	// seq marks configurations that cannot stack (attention layers, the
	// float32 engine): PredictBatch then runs the unbatched engine per
	// sample, still honoring the batched API and output contract.
	seq bool

	lastGraph *graph.Local
	lastB     int
	lastRows  int
	lastCols  int
}

// PredictBatch evaluates B snapshots of this rank's sub-graph in one
// fused sweep. Each xs[i] is a NumLocal×InputNodeFeatures snapshot; the
// returned slice holds one NumLocal×OutputNodeFeatures prediction per
// sample, bitwise-identical to e.Predict(rc, xs[i]) run on its own. The
// returned matrices are engine-owned row-blocks of one stacked buffer and
// stay valid through ONE subsequent PredictBatch/RolloutBatch call. All
// ranks must call collectively with the same batch size.
func (e *Inference) PredictBatch(rc *RankContext, xs []*tensor.Matrix) []*tensor.Matrix {
	batch := len(xs)
	if batch == 0 {
		panic("gnn: PredictBatch with an empty batch")
	}
	for _, x := range xs {
		if x.Rows != rc.Graph.NumLocal() || x.Cols != e.Config.InputNodeFeatures {
			panic(fmt.Sprintf("gnn: batched inference input %dx%d, want %dx%d",
				x.Rows, x.Cols, rc.Graph.NumLocal(), e.Config.InputNodeFeatures))
		}
	}
	b := e.bindBatch(rc, batch, xs[0].Rows, xs[0].Cols)
	if b.seq {
		// Cannot stack: run the unbatched engine per sample, copying
		// each result into the stacked output so the buffer-lifetime
		// contract still holds.
		out := b.ensureOut(batch*xs[0].Rows, e.Config.OutputNodeFeatures, batch)
		per := out.Rows / batch
		for i, x := range xs {
			y := e.Predict(rc, x)
			copy(out.Data[i*per*out.Cols:(i+1)*per*out.Cols], y.Data)
		}
		return b.hdrs[b.outIdx]
	}
	n := xs[0].Rows * xs[0].Cols
	for i, x := range xs {
		copy(b.xb.Data[i*n:(i+1)*n], x.Data)
	}
	e.predictStacked(rc, b, batch)
	return b.hdrs[b.outIdx]
}

// RolloutBatch applies the engine autoregressively to B initial states,
// returning one trajectory per sample (steps+1 independent matrices each,
// including the initial state) — per sample bitwise-equal to e.Rollout.
// All ranks must call collectively.
func (e *Inference) RolloutBatch(rc *RankContext, x0s []*tensor.Matrix, steps int) [][]*tensor.Matrix {
	if e.Config.InputNodeFeatures != e.Config.OutputNodeFeatures {
		panic(fmt.Sprintf("gnn: rollout needs matching widths, have %d -> %d",
			e.Config.InputNodeFeatures, e.Config.OutputNodeFeatures))
	}
	batch := len(x0s)
	if batch == 0 {
		panic("gnn: RolloutBatch with an empty batch")
	}
	trajs := make([][]*tensor.Matrix, batch)
	cur := make([]*tensor.Matrix, batch)
	for i, x0 := range x0s {
		trajs[i] = make([]*tensor.Matrix, 0, steps+1)
		c := x0.Clone()
		trajs[i] = append(trajs[i], c)
		cur[i] = c
	}
	for s := 0; s < steps; s++ {
		outs := e.PredictBatch(rc, cur)
		for i, y := range outs {
			c := y.Clone()
			trajs[i] = append(trajs[i], c)
			cur[i] = c
		}
	}
	return trajs
}

// bindBatch (re)binds the batched state to a (graph, B, shape) tuple,
// mirroring the unbatched bind: clear the arena and re-tile the
// static-edge encoding from the compile's per-graph cache (a rebind
// encodes nothing bind or an earlier bindBatch already has).
func (e *Inference) bindBatch(rc *RankContext, batch, rows, cols int) *inferBatch {
	b := e.batch
	if b == nil {
		b = &inferBatch{arena: tensor.NewArena()}
		e.batch = b
	}
	if rc.Graph == b.lastGraph && batch == b.lastB && rows == b.lastRows && cols == b.lastCols {
		return b
	}
	b.arena.Clear()
	b.lastGraph, b.lastB, b.lastRows, b.lastCols = rc.Graph, batch, rows, cols
	b.staticHeB = nil
	b.seq = e.f32 != nil
	for _, p := range e.procs {
		if _, ok := p.(*inferNMP); !ok {
			b.seq = true
		}
	}
	if b.seq {
		return b
	}
	if e.Config.EdgeMode == EdgeFeatures4 {
		one := e.shared.staticFor(rc.Graph, rc.StaticEdge, e.edgeEnc)
		b.staticHeB = tensor.New(batch*one.Rows, one.Cols)
		tensor.TileRowsInto(b.staticHeB, one, batch)
	}
	if b.xb == nil || b.xb.Rows != batch*rows || b.xb.Cols != cols {
		b.xb = tensor.New(batch*rows, cols)
	}
	return b
}

// ensureOut advances the double buffer and sizes the stacked output and
// its per-sample headers.
func (b *inferBatch) ensureOut(rows, cols, batch int) *tensor.Matrix {
	b.outIdx = 1 - b.outIdx
	out := b.outs[b.outIdx]
	if out == nil || out.Rows != rows || out.Cols != cols || len(b.hdrs[b.outIdx]) != batch {
		out = tensor.New(rows, cols)
		b.outs[b.outIdx] = out
		per := rows / batch
		hdrs := make([]*tensor.Matrix, batch)
		for i := range hdrs {
			hdrs[i] = out.RowBlock(i*per, (i+1)*per)
		}
		b.hdrs[b.outIdx] = hdrs
	}
	return out
}

// predictStacked runs one fused epoch over the stacked input b.xb.
func (e *Inference) predictStacked(rc *RankContext, b *inferBatch, batch int) {
	a := b.arena
	a.Reset()
	hx := e.nodeEnc.InferForward(a, b.xb)
	he := b.staticHeB
	if he == nil {
		he = e.edgeEnc.InferForward(a, rc.edgeInputs7(b.xb, a, batch))
	}
	for _, p := range e.procs {
		hx, he = p.forward(rc, a, hx, he, batch)
	}
	y := e.dec.InferForward(a, hx)
	out := b.ensureOut(y.Rows, y.Cols, batch)
	tensor.CloneInto(out, y)
}
