package gnn

import (
	"fmt"

	"meshgnn/internal/graph"
	"meshgnn/internal/nn"
	"meshgnn/internal/parallel"
	"meshgnn/internal/tensor"
)

// Model is the encode-process-decode GNN (paper Sec. III):
//
//  1. node and edge encoders lift inputs to HiddenDim (purely local);
//  2. M consistent NMP layers propagate messages, exchanging halos;
//  3. a node decoder maps hidden features to the output width.
//
// A Model is rank-agnostic: the same parameters (identical on every rank
// by deterministic seeding) evaluate any rank's sub-graph through a
// RankContext. That is the paper's setup — θ does not depend on r.
//
// Memory model. The model owns a tensor.Arena from which its layers draw
// every per-step activation and intermediate gradient. Forward resets the
// arena (recycling the previous step's workspaces) and Backward continues
// the same recorded sequence, so after the first step a forward/backward
// pass performs no heap allocation in the tensor/nn/gnn kernels. The
// returned prediction is copied into a model-owned buffer that stays
// valid until the next Forward call. When the evaluated sub-graph or
// batch size changes, the arena is cleared and re-recorded on the next
// pass over the slabs and headers it already has, and the static-edge
// tile keeps every copy it holds — so alternating batch sizes (Fit's short
// tail) allocates nothing once the largest has been seen.
//
// Batches. A forward/backward pass runs over B same-mesh samples stacked
// as row blocks of one (B·N)×F matrix; Forward's single sample is the
// batch of one. Pure row maps (input-gradient GEMMs, ELU, per-row
// LayerNorm dx, gathers and owner-partitioned scatters) run over the full
// stack, while every reduction whose fixed chunk schedule derives from
// the row count — the weight/bias/gain/shift gradients and the per-sample
// loss sums — runs one sample block at a time in ascending sample order.
// Each block then reproduces the exact reduction geometry of a pass over
// that sample alone, so the accumulated B-sample gradient is
// bitwise-equal to the sequential accumulation (ZeroGrads once, then B
// single-sample Forward/Loss/Backward passes) for any thread count, rank
// count, transport, and overlap mode.
type Model struct {
	Config Config

	NodeEncoder *nn.MLP
	EdgeEncoder *nn.MLP
	Layers      []*NMPLayer
	Decoder     *nn.MLP

	params []*nn.Param

	arena *tensor.Arena
	// outs double-buffers the persistent prediction: each Forward writes
	// the buffer the *previous* call did not return, so the last returned
	// prediction survives one further Forward — the pushforward pattern
	// trainer.Step(rc, model.Forward(rc, x), target) reads the old
	// prediction (as cached input and loss target) while the new one is
	// being produced.
	outs      [2]*tensor.Matrix
	outIdx    int
	lastGraph *graph.Local // arena shape signature; Backward reads it too
	lastBatch int

	// staticEdge is the batch-tiled static-edge attributes, stacked like
	// every other activation because the edge encoder's backward slices its
	// cached input per block; staticEdgeB is the header over the current
	// batch's copies. one is Forward's batch of one.
	staticEdge  rowTile[float64]
	staticEdgeB tensor.Matrix
	one         [1]*tensor.Matrix

	// encT is the node encoder's tail: the first layer's projection of the
	// encoded rows.
	encT projectTask[float64]
}

// rowTile is a grow-only stack of copies of one row block — the static-edge
// attributes (training) or their encoding (serving, either precision),
// which every sample of a batch shares. It keeps as many copies as the
// largest batch asked for so far and a smaller batch is a prefix of them,
// so a change of batch size copies only what is not there yet and, below
// the largest, nothing.
type rowTile[T elem] struct {
	data []T
	n    int // copies present
}

// of returns batch stacked copies of src (src itself for a batch of one).
// Every call between two drops must pass the same src.
func (t *rowTile[T]) of(src []T, batch int) []T {
	if batch == 1 {
		return src
	}
	n := len(src)
	if cap(t.data) < batch*n {
		t.data, t.n = make([]T, batch*n), 0
	}
	for ; t.n < batch; t.n++ {
		copy(t.data[t.n*n:(t.n+1)*n], src)
	}
	return t.data[:batch*n]
}

// drop forgets the copies: the source changed.
func (t *rowTile[T]) drop() { t.n = 0 }

// NewModel builds a model from the configuration with deterministic
// initialization.
func NewModel(cfg Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Threads != 0 {
		// The intra-rank engine is process-wide (the worker pool is
		// shared by all goroutine ranks), so the knob configures it
		// globally rather than per model. The request is clamped to the
		// core count.
		parallel.SetThreads(parallel.Clamp(cfg.Threads))
	}
	rng := cfg.newRNG()
	h := cfg.HiddenDim
	m := &Model{Config: cfg}
	m.NodeEncoder = nn.NewMLP("enc.node", cfg.InputNodeFeatures, h, h, cfg.MLPHiddenLayers, true, rng)
	m.EdgeEncoder = nn.NewMLP("enc.edge", edgeInputCols, h, h, cfg.MLPHiddenLayers, true, rng)
	for i := 0; i < cfg.MessagePassingLayers; i++ {
		l := NewNMPLayer(fmt.Sprintf("nmp%d", i), h, cfg.MLPHiddenLayers, rng)
		l.Overlap = cfg.Overlap
		m.Layers = append(m.Layers, l)
	}
	m.Decoder = nn.NewMLP("dec.node", h, h, cfg.OutputNodeFeatures, cfg.MLPHiddenLayers, false, rng)

	m.params = append(m.params, m.NodeEncoder.Params()...)
	m.params = append(m.params, m.EdgeEncoder.Params()...)
	for _, l := range m.Layers {
		m.params = append(m.params, l.Params()...)
	}
	m.params = append(m.params, m.Decoder.Params()...)

	if got := nn.CountParams(m.params); got != cfg.ParamCount() {
		return nil, fmt.Errorf("gnn: built %d parameters, formula says %d", got, cfg.ParamCount())
	}

	// One workspace arena feeds every layer.
	m.arena = tensor.NewArena()
	m.NodeEncoder.SetArena(m.arena)
	m.EdgeEncoder.SetArena(m.arena)
	m.Decoder.SetArena(m.arena)
	for _, l := range m.Layers {
		l.SetArena(m.arena)
	}
	return m, nil
}

// SetOverlap toggles the phased (overlapped) NMP pipeline at runtime, for
// models whose Config predates the knob (e.g. loaded checkpoints).
// Results are bitwise-identical either way — overlap is a scheduling
// property — so flipping it between steps is safe.
func (m *Model) SetOverlap(on bool) {
	m.Config.Overlap = on
	for _, l := range m.Layers {
		l.Overlap = on
	}
}

// Params returns all trainable parameters in deterministic order.
func (m *Model) Params() []*nn.Param { return m.params }

// NumParams returns the trainable parameter count.
func (m *Model) NumParams() int { return nn.CountParams(m.params) }

// Forward evaluates the GNN on this rank's sub-graph. x is the
// NumLocal×InputNodeFeatures node attribute matrix; the result is the
// NumLocal×OutputNodeFeatures prediction, owned by the model: it stays
// valid through ONE subsequent Forward call (so a returned prediction can
// be fed straight back in as the next input or training target) and is
// recycled by the call after that — hold it longer by cloning, as Rollout
// does. All ranks must call Forward collectively (the NMP layers
// synchronize halos).
func (m *Model) Forward(rc *RankContext, x *tensor.Matrix) *tensor.Matrix {
	m.one[0] = x
	y := m.forward(rc, m.one[:])
	// The prediction escapes the step (losses, rollouts, assembly hold
	// it), so it is copied out of the arena into a persistent buffer —
	// alternating between two so the previously returned prediction stays
	// intact through this call (see outs).
	m.outIdx = 1 - m.outIdx
	out := m.outs[m.outIdx]
	if out == nil || out.Rows != y.Rows || out.Cols != y.Cols {
		out = tensor.New(y.Rows, y.Cols)
		m.outs[m.outIdx] = out
	}
	tensor.CloneInto(out, y)
	return out
}

// forward evaluates the GNN on len(xs) stacked snapshots of this rank's
// sub-graph, returning the (batch·N_local)×OutputNodeFeatures stacked
// prediction. The result is arena-owned: valid until the next forward pass
// begins (it only needs to survive into the loss and the matching
// Backward). All ranks must call collectively with the same batch size.
func (m *Model) forward(rc *RankContext, xs []*tensor.Matrix) *tensor.Matrix {
	batch := len(xs)
	if batch == 0 {
		panic("gnn: forward with an empty batch")
	}
	rows, cols := rc.Graph.NumLocal(), m.Config.InputNodeFeatures
	for _, x := range xs {
		if x.Rows != rows || x.Cols != cols {
			panic(fmt.Sprintf("gnn: input %dx%d, want %dx%d", x.Rows, x.Cols, rows, cols))
		}
	}
	// A new forward pass begins the next workspace epoch: rewind the
	// arena (replaying the recorded buffers), or re-record from scratch
	// when the computation changed shape.
	if rc.Graph != m.lastGraph || batch != m.lastBatch {
		if rc.Graph != m.lastGraph {
			m.staticEdge.drop()
		}
		m.arena.Clear()
		m.lastGraph, m.lastBatch = rc.Graph, batch
		se := rc.StaticEdge
		m.staticEdgeB = tensor.Matrix{Rows: batch * se.Rows, Cols: se.Cols, Data: m.staticEdge.of(se.Data, batch)}
	}
	m.arena.Reset()
	// The stacked input is the epoch's first workspace (the node encoder
	// caches it for its backward).
	xb := m.arena.Get(batch*rows, cols)
	n := rows * cols
	for i, x := range xs {
		copy(xb.Data[i*n:(i+1)*n], x.Data)
	}
	// The node encoder's tail projects its rows for the first edge stage,
	// each node stage's tail for the next (projectTask). The two encoders
	// read nothing of each other's: one region.
	pq := m.arena.Get(2*batch*rows, m.Config.HiddenDim)
	m.encT = projectTask[float64]{next: m.edgeFirst(0)}
	m.encT.p, m.encT.q = projViews(rowsOf[float64]{pq.Data, pq.Cols})
	hx, he := nn.ForwardPair(m.NodeEncoder, xb, &m.encT, m.EdgeEncoder, &m.staticEdgeB)
	for i, l := range m.Layers {
		hx, he, pq = l.forward(rc, hx, he, pq, batch, m.edgeFirst(i+1))
	}
	return m.Decoder.Forward(hx)
}

// edgeFirst is layer i's edge-MLP first Linear as its input parts, the
// zero SplitLinear past the last layer: what the stage producing layer
// i's node features projects them through.
func (m *Model) edgeFirst(i int) nn.SplitLinear[float64] {
	if i == len(m.Layers) {
		return nn.SplitLinear[float64]{}
	}
	return m.Layers[i].edgeFirst()
}

// Backward propagates the output gradient dy — stacked like the most
// recent forward pass's prediction — through the model, accumulating
// parameter gradients. Gradients with respect to the raw inputs are not
// returned: inputs are data. All ranks must call Backward collectively,
// after the matching forward (the workspace epoch spans the forward and
// backward pass).
func (m *Model) Backward(dy *tensor.Matrix) {
	batch := m.lastBatch
	dhx := m.Decoder.BackwardBatched(dy, batch)
	// The last layer's edge gradient starts at zero (edge features are
	// discarded after message passing, per the paper's decoder).
	dhe := m.arena.GetZeroed(batch*m.lastGraph.NumEdges(), m.Config.HiddenDim)
	for i := len(m.Layers) - 1; i >= 0; i-- {
		dhx, dhe = m.Layers[i].Backward(dhx, dhe)
	}
	m.EdgeEncoder.BackwardBatched(dhe, batch)
	m.NodeEncoder.BackwardBatched(dhx, batch)
}

// ZeroGrads clears all parameter gradients.
func (m *Model) ZeroGrads() { nn.ZeroGrads(m.params) }

// WorkspaceFootprint reports the arena's slab storage in float64s — the
// model's steady-state per-step workspace.
func (m *Model) WorkspaceFootprint() int { return m.arena.Footprint() }
