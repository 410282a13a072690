package gnn

import (
	"fmt"
	"io"
	"sync"

	"meshgnn/internal/graph"
	"meshgnn/internal/nn"
	"meshgnn/internal/parallel"
	"meshgnn/internal/tensor"
)

// Inference is a forward-only serving engine compiled from a trained
// Model. It evaluates the same encode→NMP→decode computation — bitwise,
// prediction for prediction, at Float64 — but strips everything that
// exists only for training: no gradient accumulators, no backward
// workspaces, no activation between the layers of an MLP block — and that
// includes the block's input wherever something assembles it: the
// (a* ‖ x) node inputs of a processor exist one row panel at a time,
// gathered by the head of the panel loop into the evaluator's scratch
// (nn.InferMLP carries a row panel from that head through the block to a
// residual-add tail as one parallel region), never as a (B·N_local)×2H
// workspace, and the (x_i ‖ x_j ‖ e_ij) edge inputs not at all: the edge
// block's head writes its first Linear's output from the node projections
// (nmp.go) and the block runs from its first ELU on — and no edge
// encoder on the request path: the edge attributes are the static
// geometry columns, so its output does not depend on the node snapshot and
// is encoded once per (graph, parameters) and reused.
//
// One pass. There is one engine-level forward, runPass: stage the B
// samples in → node encoder → static-edge encoding (tiled) → processors →
// decoder → stage out. B is len(xs): Predict is PredictBatch of one and
// Rollout is RolloutBatch of one, as Model.Forward is forward of one. The
// samples stack vertically into a (B·N_local)×F matrix — batch as
// a leading row-block dimension, not a loop — and every kernel is
// row-wise, so sample b of a stacked pass is bitwise a pass over sample b
// alone; stacking buys one GEMM sweep per layer, one dispatch round and
// one halo frame per neighbor for all B samples, and changes no bit. The
// processors are not a serving copy of the training ones either: they are
// the one Eq. 4 schedule (nmp.go) driven through a serving adapter, so
// Config.Overlap hides halo transfers behind interior compute here too.
//
// Two element types. Config.Precision picks what the pass computes in;
// what the element type supplies is an enginePass (pass64, pass32 below).
// Float64 copies the model's parameters and is bitwise Model.Forward on
// them. Float32 demotes them to single precision and approximates the
// float64 engine to a tolerance (gated in the parity tests), while
// staying bitwise-reproducible across thread counts, transports, overlap
// settings and batch sizes: inputs demote on the way in, predictions
// promote on the way out, and the halo swap stages through float64 because
// that is the wire's element type, so exchange plans, transports and the
// overlap split point are those of the float64 users.
//
// Core and session. A compile produces an inferCore — the MLP twins with
// their parameter copies and the per-graph static-edge cache —
// which is a snapshot of the model's parameters at compile, immutable
// (but for the cache, filled under its lock) and shared by pointer. The
// source model may train on, even while the engine serves, and nothing
// here sees it; to serve new parameters, compile a new engine. Everything
// an evaluation writes is session state: one workspace arena per element
// type, the float32 wire staging, the static-edge tile, the output double
// buffer, and one binding keyed on the rank graph. NewInference returns a
// core with its first session; Session adds another over the same core, at
// either precision.
//
// Grow-only binding. Within a graph a change of batch size is an
// arena.Clear — the next pass re-records over the slabs and headers the
// arena already has — and nothing else: the static-edge tile, the wire
// staging, the output buffers and their per-sample headers are sized by
// the largest batch seen and a smaller batch views their prefix. Once the
// largest batch has been served, no batch size allocates and
// WorkspaceFootprint no longer moves, whatever order traffic arrives in.
//
// Like the model, an engine is single-goroutine (per rank) and Predict is
// collective across ranks.
type Inference struct {
	Config Config

	// Exactly one pass is present, by Config.Precision. Each points at the
	// core it was compiled with (or, for a Session view, shares).
	p64 *pass64
	p32 *pass32

	// The binding: the rank graph and batch size the arenas are recorded
	// for.
	graph *graph.Local
	batch int

	// outs double-buffers the stacked prediction exactly like
	// Model.Forward: each call writes the buffer the previous call did not
	// return.
	outs   [2]stackedOut
	outIdx int
	one    [1]*tensor.Matrix // Predict's batch of one
}

// inferCore is what a compile produces and every session of it shares: the
// forward-only MLP twins of one precision (P; their own parameter copies,
// demoted once at Float32 — an evaluation keeps no state in them) and the
// static-edge encodings, one per bound rank graph (M). Entries of the cache
// are computed once, under the lock, into ordinary (non-arena) storage,
// and only read afterwards — the kernels are deterministic, so whichever
// session fills an entry writes the bytes every session would have
// computed.
type inferCore[P, M any] struct {
	nodeEnc, edgeEnc, dec P
	layers                []coreLayer[P]

	mu     sync.Mutex
	static map[*graph.Local]M
}

// coreLayer is one compiled NMP layer: the forward-only twins of its edge
// and node MLPs.
type coreLayer[P any] struct {
	edgeMLP, nodeMLP P
}

func compileCore[P, M any](m *Model, compile func(*nn.MLP) P) *inferCore[P, M] {
	c := &inferCore[P, M]{
		nodeEnc: compile(m.NodeEncoder),
		edgeEnc: compile(m.EdgeEncoder),
		dec:     compile(m.Decoder),
	}
	for _, l := range m.Layers {
		c.layers = append(c.layers, coreLayer[P]{
			edgeMLP: compile(l.EdgeMLP),
			nodeMLP: compile(l.NodeMLP),
		})
	}
	return c
}

// staticFor returns the cached static-edge encoding for g, computing it
// through encode on a miss.
func (c *inferCore[P, M]) staticFor(g *graph.Local, encode func() M) M {
	c.mu.Lock()
	defer c.mu.Unlock()
	if he, ok := c.static[g]; ok {
		return he
	}
	he := encode()
	if c.static == nil {
		c.static = make(map[*graph.Local]M)
	}
	c.static[g] = he
	return he
}

// NewInference compiles a forward-only engine from the model: a snapshot
// of its parameters, at Config.Precision — copied as they are at the
// default Float64 (nn.Compile), demoted to single precision once at
// Float32 (nn.Compile32). The model is only read, and updates to it after the
// call are not visible to the engine; compile again to serve them.
func NewInference(m *Model) (*Inference, error) {
	if err := m.Config.Validate(); err != nil {
		return nil, err
	}
	e := &Inference{Config: m.Config}
	if m.Config.Precision == Float32 {
		e.p32 = newPass32(compileCore[*nn.InferMLP32, *tensor.Matrix32](m, (*nn.MLP).Compile32))
	} else {
		e.p64 = newPass64(compileCore[*nn.InferMLP, *tensor.Matrix](m, (*nn.MLP).Compile))
	}
	return e, nil
}

// LoadInference reads a model checkpoint (SaveModel format) and compiles
// an engine from it. The restored model is not retained.
func LoadInference(r io.Reader) (*Inference, error) {
	m, err := LoadModel(r)
	if err != nil {
		return nil, err
	}
	return NewInference(m)
}

// Session returns a new pass over the same core: the MLP twins (their
// parameter copies) and the static-edge cache are
// shared by pointer, one compile referenced by S sessions of either
// precision; the arenas, wire staging, static-edge tile, output
// double-buffer, binding and message-passing task scaffolding are fresh.
// Sessions may predict concurrently — each from its own collective group
// — and their results are bitwise-identical to the source engine's,
// sample for sample: an evaluation writes nothing in the core but the
// static-edge cache, under its lock.
func (e *Inference) Session() *Inference {
	s := &Inference{Config: e.Config}
	if e.p32 != nil {
		s.p32 = newPass32(e.p32.core)
	} else {
		s.p64 = newPass64(e.p64.core)
	}
	return s
}

// WorkspaceFootprint reports the session's arena storage in float64s — the
// steady-state per-request workspace (compare Model.WorkspaceFootprint,
// which also carries the backward epoch). For a Float32 engine the
// activation arena is counted at half a float64 per element. Arenas keep
// their slabs, so the figure stops moving once the largest batch has been
// served.
func (e *Inference) WorkspaceFootprint() int {
	if e.p32 != nil {
		return (e.p32.arena.Footprint() + 1) / 2
	}
	return e.p64.arena.Footprint()
}

// Predict evaluates the engine on this rank's sub-graph: x is the
// NumLocal×InputNodeFeatures node snapshot, the result the
// NumLocal×OutputNodeFeatures prediction, bitwise-equal to Model.Forward
// on the source model (Float64). It is PredictBatch of one and shares its
// output-lifetime contract. All ranks must call Predict collectively.
func (e *Inference) Predict(rc *RankContext, x *tensor.Matrix) *tensor.Matrix {
	e.one[0] = x
	return e.PredictBatch(rc, e.one[:])[0]
}

// PredictBatch evaluates B snapshots of this rank's sub-graph in one
// stacked pass. Each xs[i] is a NumLocal×InputNodeFeatures snapshot; the
// returned slice holds one NumLocal×OutputNodeFeatures prediction per
// sample, bitwise-identical to e.Predict(rc, xs[i]) run on its own, at
// either precision. All ranks must call collectively with the same batch
// size.
//
// Output lifetime: the returned matrices (and the slice) are engine-owned
// row blocks of one of two stacked buffers, and stay valid through ONE
// subsequent Predict, PredictBatch, Rollout or RolloutBatch step on this
// engine, of any batch size — the pushforward contract of Model.Forward.
// Clone what must live longer, as the rollouts do.
//
// The call is one op bracket of the worker pool (parallel.Begin).
func (e *Inference) PredictBatch(rc *RankContext, xs []*tensor.Matrix) []*tensor.Matrix {
	parallel.Begin()
	defer parallel.End()
	return e.predictBatch(rc, xs)
}

// predictBatch is PredictBatch without the op bracket, for the rollouts'
// steps inside theirs.
func (e *Inference) predictBatch(rc *RankContext, xs []*tensor.Matrix) []*tensor.Matrix {
	batch := len(xs)
	if batch == 0 {
		panic("gnn: PredictBatch with an empty batch")
	}
	per := rc.Graph.NumLocal()
	for _, x := range xs {
		if x.Rows != per || x.Cols != e.Config.InputNodeFeatures {
			panic(fmt.Sprintf("gnn: inference input %dx%d, want %dx%d",
				x.Rows, x.Cols, per, e.Config.InputNodeFeatures))
		}
	}
	e.outIdx = 1 - e.outIdx
	out := &e.outs[e.outIdx]
	out.size(batch, per, e.Config.OutputNodeFeatures)
	e.pass(rc, xs, &out.all)
	return out.hdrs[:batch]
}

// Rollout applies the engine autoregressively, state_{n+1} = G(state_n),
// returning the trajectory including the initial state (steps+1
// matrices, each an independent copy) — bitwise-equal to gnn.Rollout on
// the source model. It is RolloutBatch of one. All ranks must call
// collectively.
func (e *Inference) Rollout(rc *RankContext, x0 *tensor.Matrix, steps int) []*tensor.Matrix {
	return e.RolloutBatch(rc, []*tensor.Matrix{x0}, steps)[0]
}

// RolloutBatch applies the engine autoregressively to B initial states,
// returning one trajectory per sample (steps+1 independent matrices each,
// including the initial state) — per sample bitwise-equal to e.Rollout.
// All ranks must call collectively. The whole rollout is one op bracket of
// the worker pool (parallel.Begin).
func (e *Inference) RolloutBatch(rc *RankContext, x0s []*tensor.Matrix, steps int) [][]*tensor.Matrix {
	if e.Config.InputNodeFeatures != e.Config.OutputNodeFeatures {
		panic(fmt.Sprintf("gnn: rollout needs matching widths, have %d -> %d",
			e.Config.InputNodeFeatures, e.Config.OutputNodeFeatures))
	}
	if len(x0s) == 0 {
		panic("gnn: RolloutBatch with an empty batch")
	}
	parallel.Begin()
	defer parallel.End()
	trajs := make([][]*tensor.Matrix, len(x0s))
	cur := make([]*tensor.Matrix, len(x0s))
	for i, x0 := range x0s {
		cur[i] = x0.Clone()
		trajs[i] = append(make([]*tensor.Matrix, 0, steps+1), cur[i])
	}
	for s := 0; s < steps; s++ {
		for i, y := range e.predictBatch(rc, cur) {
			cur[i] = y.Clone()
			trajs[i] = append(trajs[i], cur[i])
		}
	}
	return trajs
}

// stackedOut is one half of the output double buffer: grow-only storage
// for the largest stacked prediction seen, and one header per sample.
type stackedOut struct {
	all  tensor.Matrix    // the current batch, stacked
	hdrs []*tensor.Matrix // hdrs[i] is sample i's row block of the storage
}

// size shapes the buffer for batch samples of per rows. Sample i sits at
// the same offset whatever the batch, so headers survive every change of
// batch size that does not move the storage.
func (o *stackedOut) size(batch, per, cols int) {
	if cap(o.all.Data) < batch*per*cols || (len(o.hdrs) > 0 && o.hdrs[0].Rows != per) {
		o.hdrs = o.hdrs[:0] // the storage is about to move, or the graph changed
	}
	o.all.Resize(batch*per, cols)
	for i := len(o.hdrs); i < batch; i++ {
		o.hdrs = append(o.hdrs, o.all.RowBlock(i*per, (i+1)*per))
	}
}

// enginePass is what an element type supplies to the one engine pass. M is
// its matrix handle, opaque to the pass. Implementations are persistent
// structs behind a pointer, so driving the pass through one allocates
// nothing.
type enginePass[M any] interface {
	// bind re-records the session for a (graph, batch) pair: clear the
	// arena and view batch copies of the graph's cached static-edge
	// encoding (fetched, and on a miss computed, when the graph is new).
	bind(rc *RankContext, batch int, newGraph bool)
	// begin rewinds the arena for the next pass.
	begin()
	// encodeNodes stages the samples in — stacked, in the element type —
	// and lifts them to hidden node features, projected through the first
	// processor's edge MLP (see forwardNMP) in the encoder's tail.
	encodeNodes(xs []*tensor.Matrix) (x, pq M)
	// encodeEdges returns the stacked hidden edge features: the batch's
	// copies of the static-edge encoding.
	encodeEdges() M
	// process applies processor layer i to x projected in pq, projecting
	// xOut for the next processor if there is one.
	process(rc *RankContext, i int, x, e, pq M, batch int, overlap bool) (xOut, eOut, pqOut M)
	// decodeInto decodes x and stages the float64 prediction out into dst.
	decodeInto(dst *tensor.Matrix, x M)
}

// pass dispatches the one engine pass on the session's element type.
func (e *Inference) pass(rc *RankContext, xs []*tensor.Matrix, dst *tensor.Matrix) {
	if e.p32 != nil {
		runPass(e, e.p32, rc, xs, dst)
	} else {
		runPass(e, e.p64, rc, xs, dst)
	}
}

// runPass is the engine's one forward: the len(xs) samples, stacked,
// through encode → Eq. 4 × M → decode into dst ((len(xs)·N_local) rows).
func runPass[M any](e *Inference, u enginePass[M], rc *RankContext, xs []*tensor.Matrix, dst *tensor.Matrix) {
	batch := len(xs)
	// The edge encoder's input does not depend on the snapshot: its output
	// is a per-graph constant of the core, bitwise what a per-request
	// evaluation would produce, so caching it is invisible to the results.
	if rc.Graph != e.graph || batch != e.batch {
		u.bind(rc, batch, rc.Graph != e.graph)
		e.graph, e.batch = rc.Graph, batch
	}
	u.begin()
	hx, pq := u.encodeNodes(xs)
	he := u.encodeEdges()
	for i := 0; i < e.Config.MessagePassingLayers; i++ {
		hx, he, pq = u.process(rc, i, hx, he, pq, batch, e.Config.Overlap)
	}
	u.decodeInto(dst, hx)
}

// pass64 is a float64 session: the nmpUser of the Eq. 4 schedule (direct64:
// workspaces from the arena, aggregates on the wire as they are) and the
// enginePass around it.
type pass64 struct {
	direct64
	core  *inferCore[*nn.InferMLP, *tensor.Matrix]
	layer *coreLayer[*nn.InferMLP] // the processor forwardNMP is running
	fwd   nmpTasks[float64]
	encT  projectTask[float64] // the node encoder's tail

	he      *tensor.Matrix // the bound graph's static-edge encoding (core-owned)
	tile    rowTile[float64]
	staticB tensor.Matrix // header over the current batch's copies of he
}

func newPass64(core *inferCore[*nn.InferMLP, *tensor.Matrix]) *pass64 {
	return &pass64{direct64: direct64{arena: tensor.NewArena()}, core: core}
}

func (u *pass64) bind(rc *RankContext, batch int, newGraph bool) {
	u.arena.Clear()
	if newGraph {
		u.tile.drop()
		// Encoded outside the arena, so the per-request replay sequence
		// never contains it.
		u.he = u.core.staticFor(rc.Graph, func() *tensor.Matrix {
			return u.core.edgeEnc.InferForward(nil, rc.StaticEdge)
		})
	}
	u.staticB = tensor.Matrix{Rows: batch * u.he.Rows, Cols: u.he.Cols, Data: u.tile.of(u.he.Data, batch)}
}

func (u *pass64) begin() { u.arena.Reset() }

func (u *pass64) encodeNodes(xs []*tensor.Matrix) (*tensor.Matrix, *tensor.Matrix) {
	n := len(xs[0].Data)
	x := u.arena.Get(len(xs)*xs[0].Rows, xs[0].Cols)
	for i, s := range xs {
		copy(x.Data[i*n:(i+1)*n], s.Data)
	}
	pq := u.arena.Get(2*x.Rows, u.core.nodeEnc.Out)
	u.encT = projectTask[float64]{next: edgeFirstOf[float64](u.core.layers, 0)}
	u.encT.p, u.encT.q = projViews(u.view(pq))
	return u.core.nodeEnc.InferForwardTail(u.arena, x, &u.encT), pq
}

func (u *pass64) encodeEdges() *tensor.Matrix { return &u.staticB }

func (u *pass64) process(rc *RankContext, i int, x, e, pq *tensor.Matrix, batch int, overlap bool) (xOut, eOut, pqOut *tensor.Matrix) {
	u.layer = &u.core.layers[i]
	return forwardNMP(u, &u.fwd, rc, x, e, pq, batch, overlap, edgeFirstOf[float64](u.core.layers, i+1))
}

// edgeFirstOf is processor i's edge-MLP first Linear as its input parts,
// the zero SplitLinear past the last (see Model.edgeFirst).
func edgeFirstOf[T elem, P interface{ SplitFirst(int) nn.SplitLinear[T] }](layers []coreLayer[P], i int) nn.SplitLinear[T] {
	if i == len(layers) {
		return nn.SplitLinear[T]{}
	}
	return layers[i].edgeMLP.SplitFirst(edgeParts)
}

func (u *pass64) edgeFirst() nn.SplitLinear[float64] { return u.layer.edgeMLP.SplitFirst(edgeParts) }

func (u *pass64) runEdge(rows int, head nn.PreHead[float64], tail nn.RowMap[float64]) *tensor.Matrix {
	return u.layer.edgeMLP.InferPre(u.arena, rows, head, tail)
}

func (u *pass64) runNode(rows int, head, tail nn.RowMap[float64]) *tensor.Matrix {
	return u.layer.nodeMLP.InferRows(u.arena, rows, head, tail)
}

func (u *pass64) decodeInto(dst, x *tensor.Matrix) {
	tensor.CloneInto(dst, u.core.dec.InferForward(u.arena, x))
}

// pass32 is a float32 session: activations in a float32 arena (half the
// bytes, half the memory traffic on the GEMM-bound path), and float64
// staging for the halo wire (aggStage, haloStage, sized by the batch like
// every other stacked matrix).
type pass32 struct {
	core  *inferCore[*nn.InferMLP32, *tensor.Matrix32]
	layer *coreLayer[*nn.InferMLP32]
	fwd   nmpTasks[float32]
	encT  projectTask[float32]

	arena *tensor.Arena32
	blk   tensor.Matrix32 // header over one sample's block of the stacked input

	// haloStage is only ever written by the exchanger, so a NoExchange run
	// demotes exact zeros into the float32 halo buffer — the same
	// "contributes nothing" contract as the float64 path's zeroed halo
	// workspace. A new graph starts it from fresh (zeroed) storage.
	aggStage, haloStage tensor.Matrix

	he      *tensor.Matrix32
	tile    rowTile[float32]
	staticB tensor.Matrix32
}

func newPass32(core *inferCore[*nn.InferMLP32, *tensor.Matrix32]) *pass32 {
	return &pass32{core: core, arena: tensor.NewArena32()}
}

func (u *pass32) bind(rc *RankContext, batch int, newGraph bool) {
	u.arena.Clear()
	g, h := rc.Graph, u.core.nodeEnc.Out
	if newGraph {
		u.haloStage = tensor.Matrix{}
	}
	u.aggStage.Resize(batch*g.NumLocal(), h)
	u.haloStage.Resize(batch*g.NumHalo(), h)
	if newGraph {
		u.tile.drop()
		u.he = u.core.staticFor(g, func() *tensor.Matrix32 {
			return u.core.edgeEnc.InferForward32(nil, tensor.Demote32(rc.StaticEdge))
		})
	}
	u.staticB = tensor.Matrix32{Rows: batch * u.he.Rows, Cols: u.he.Cols, Data: u.tile.of(u.he.Data, batch)}
}

func (u *pass32) begin() { u.arena.Reset() }

func (u *pass32) encodeNodes(xs []*tensor.Matrix) (*tensor.Matrix32, *tensor.Matrix32) {
	per := xs[0].Rows
	x := u.arena.Get(len(xs)*per, xs[0].Cols)
	for i, s := range xs {
		x.SliceRows(&u.blk, i*per, (i+1)*per)
		tensor.DemoteInto32(&u.blk, s)
	}
	pq := u.arena.Get(2*x.Rows, u.core.nodeEnc.Out)
	u.encT = projectTask[float32]{next: edgeFirstOf[float32](u.core.layers, 0)}
	u.encT.p, u.encT.q = projViews(u.view(pq))
	return u.core.nodeEnc.InferForward32Tail(u.arena, x, &u.encT), pq
}

func (u *pass32) encodeEdges() *tensor.Matrix32 { return &u.staticB }

func (u *pass32) process(rc *RankContext, i int, x, e, pq *tensor.Matrix32, batch int, overlap bool) (xOut, eOut, pqOut *tensor.Matrix32) {
	u.layer = &u.core.layers[i]
	return forwardNMP(u, &u.fwd, rc, x, e, pq, batch, overlap, edgeFirstOf[float32](u.core.layers, i+1))
}

func (u *pass32) edgeFirst() nn.SplitLinear[float32] { return u.layer.edgeMLP.SplitFirst(edgeParts) }

func (u *pass32) decodeInto(dst *tensor.Matrix, x *tensor.Matrix32) {
	tensor.PromoteInto64(dst, u.core.dec.InferForward32(u.arena, x))
}

func (u *pass32) get(rows, cols int, zeroed bool) *tensor.Matrix32 {
	if zeroed {
		return u.arena.GetZeroed(rows, cols)
	}
	return u.arena.Get(rows, cols)
}

func (*pass32) view(m *tensor.Matrix32) rowsOf[float32] { return rowsOf[float32]{m.Data, m.Cols} }

func (u *pass32) runEdge(rows int, head nn.PreHead[float32], tail nn.RowMap[float32]) *tensor.Matrix32 {
	return u.layer.edgeMLP.InferPre32(u.arena, rows, head, tail)
}

func (u *pass32) runNode(rows int, head, tail nn.RowMap[float32]) *tensor.Matrix32 {
	return u.layer.nodeMLP.InferRows32(u.arena, rows, head, tail)
}

// toWire promotes into the float64 staging the aggregate rows the exchanger
// can pack: the boundary prefix of each sample block (the plan sends
// nothing else, and on a rank without neighbours the prefix is empty). The
// other rows of the staging are never written and never read.
func (u *pass32) toWire(g *graph.Local, agg, _ *tensor.Matrix32) (src, dst *tensor.Matrix) {
	for off := 0; off < agg.Rows; off += g.NumLocal() {
		for _, i := range g.NodeOrder[:g.NumBoundary] {
			dst := u.aggStage.Row(off + i)
			for j, v := range agg.Row(off + i) {
				dst[j] = float64(v)
			}
		}
	}
	return &u.aggStage, &u.haloStage
}

func (u *pass32) fromWire(halo *tensor.Matrix32) { tensor.DemoteInto32(halo, &u.haloStage) }
