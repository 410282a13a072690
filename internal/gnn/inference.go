package gnn

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"meshgnn/internal/graph"
	"meshgnn/internal/nn"
	"meshgnn/internal/tensor"
)

// Inference is a forward-only serving engine compiled from a trained
// Model. It evaluates the same encode→NMP→decode computation — bitwise,
// prediction for prediction — but strips everything that exists only for
// training:
//
//   - no gradient accumulators are touched and no backward workspaces are
//     ever recorded, so the engine's arena holds forward activations only;
//   - the compiled MLP blocks (nn.InferMLP) skip every store whose sole
//     consumer is a backward pass — Linear input caches, LayerNorm's xhat
//     matrix and invStd column, and with them every activation between a
//     block's layers: a block is evaluated a row panel at a time as one
//     parallel region, and only its output is materialised at full height;
//   - with the default static edge features (EdgeFeatures4) the edge
//     encoder's input does not depend on the node snapshot, so its output
//     is encoded ONCE per (graph, parameters) binding and reused by every
//     subsequent Predict — an entire MLP forward over the edge set drops
//     out of the per-request path.
//
// The message-passing layers are not a serving copy of the training
// ones: they are the one Eq. 4 schedule and its tasks (nmp.go) driven
// through a serving adapter, so the boundary/interior split point, the
// exchanger's Start/Finish halves and the batch argument are the
// training path's own, and Config.Overlap hides halo transfers behind
// interior compute in pure-forward mode too.
//
// The engine shares parameter storage with its source model (compiling
// copies nothing, and checkpoints written from the model after compiling
// are byte-identical). If the source model trains on, call Refresh to
// invalidate the cached static-edge encoding; predictions otherwise keep
// serving the parameters as of the last binding.
//
// Like the model, an engine is single-goroutine (per rank) and Predict is
// collective across ranks.
type Inference struct {
	Config Config

	nodeEnc, edgeEnc, dec *nn.InferMLP
	procs                 []inferProcessor

	// f32 is the single-precision serving twin, present only when
	// Config.Precision == Float32 (see inference32.go); the float64
	// compiled twins above are then absent and Predict dispatches to it.
	f32 *engine32

	arena *tensor.Arena
	// outs double-buffers the persistent prediction exactly like
	// Model.Forward: the returned matrix stays valid through one
	// subsequent Predict call.
	outs     [2]*tensor.Matrix
	outIdx   int
	staticHe *tensor.Matrix // cached edge encoding (EdgeFeatures4 only)

	// shared is the compile's cross-session state: the static-edge
	// encodings, computed once per rank graph and referenced read-only by
	// every Session view (nil on Float32 engines, which keep their own
	// f32 cache).
	shared *inferShared

	lastGraph *graph.Local
	lastRows  int
	lastCols  int

	// batch is the block-diagonal batched serving state (see batch.go),
	// created on the first PredictBatch.
	batch *inferBatch

	// live counts outstanding Session views of this compile (root engines
	// only): Session increments, Release decrements. Refresh refuses while
	// any view is live — it would repack the shared panels and empty the
	// shared static-edge cache under sibling sessions mid-Predict.
	live atomic.Int64
	// root points a Session view at the compile it shares; nil on roots.
	root *Inference
	// released marks a view whose Release already ran (owner-goroutine
	// state, like the rest of the engine).
	released bool
}

// inferShared is the explicitly immutable-after-fill portion of a
// compile that serving sessions reference concurrently: one static-edge
// encoding per bound rank graph. Entries are computed once, under the
// lock, into ordinary (non-arena) storage, and only read afterwards —
// the kernels are deterministic, so whichever session fills an entry
// writes the bytes every session would have computed.
type inferShared struct {
	mu     sync.Mutex
	static map[*graph.Local]*tensor.Matrix
}

// staticFor returns the cached static-edge encoding for g, computing it
// through enc on a miss. Reset (via Refresh) empties the cache.
func (s *inferShared) staticFor(g *graph.Local, se *tensor.Matrix, enc *nn.InferMLP) *tensor.Matrix {
	s.mu.Lock()
	defer s.mu.Unlock()
	if he, ok := s.static[g]; ok {
		return he
	}
	he := enc.InferForward(nil, se)
	if s.static == nil {
		s.static = make(map[*graph.Local]*tensor.Matrix)
	}
	s.static[g] = he
	return he
}

func (s *inferShared) reset() {
	s.mu.Lock()
	s.static = nil
	s.mu.Unlock()
}

// inferProcessor is the forward-only counterpart of ProcessorLayer: one
// processor layer applied to batch stacked samples on workspaces from a.
type inferProcessor interface {
	forward(rc *RankContext, a *tensor.Arena, x, e *tensor.Matrix, batch int) (xOut, eOut *tensor.Matrix)
	setOverlap(on bool)
}

// NewInference compiles a forward-only engine from the model. With the
// default Float64 precision the engine aliases the model's parameters —
// it copies nothing and never writes them — except that weight matrices
// above the packed-GEMM threshold are packed once at compile; after
// further training, Refresh re-packs them (bitwise-invisible either
// way). With Config.Precision == Float32 it instead SNAPSHOTS the
// parameters in single precision; post-compile updates are not visible —
// rebuild the engine after further training.
func NewInference(m *Model) (*Inference, error) {
	if err := m.Config.Validate(); err != nil {
		return nil, err
	}
	e := &Inference{
		Config: m.Config,
		arena:  tensor.NewArena(),
	}
	if m.Config.Precision == Float32 {
		e.f32 = compile32(m)
		return e, nil
	}
	e.shared = &inferShared{}
	e.nodeEnc = m.NodeEncoder.Compile()
	e.edgeEnc = m.EdgeEncoder.Compile()
	e.dec = m.Decoder.Compile()
	for _, l := range m.Layers {
		switch t := l.(type) {
		case *NMPLayer:
			e.procs = append(e.procs, newInferNMP(t, m.Config.Overlap))
		case *AttentionLayer:
			// The attention processor has no forward-only twin yet; the
			// engine falls back to the training layer's Forward (own
			// allocations, synchronous exchanges — see ROADMAP).
			e.procs = append(e.procs, &attentionFallback{l: t})
		default:
			return nil, fmt.Errorf("gnn: cannot compile processor %T for inference", l)
		}
	}
	return e, nil
}

// LoadInference reads a model checkpoint (SaveModel format) and compiles
// an engine from it. The restored model is retained only through the
// shared parameter storage.
func LoadInference(r io.Reader) (*Inference, error) {
	m, err := LoadModel(r)
	if err != nil {
		return nil, err
	}
	return NewInference(m)
}

// SetOverlap toggles the phased halo pipeline for subsequent predictions
// (bitwise-invisible, like Model.SetOverlap).
func (e *Inference) SetOverlap(on bool) {
	e.Config.Overlap = on
	for _, p := range e.procs {
		p.setOverlap(on)
	}
	if e.f32 != nil {
		for _, p := range e.f32.procs {
			p.setOverlap(on)
		}
	}
}

// ErrLiveSessions is returned by Refresh while Session views of the
// compile are outstanding: refreshing would empty the shared static-edge
// cache and repack the shared weight panels in place under sibling
// sessions that may be mid-Predict. Release every view (or close the
// server holding them) first.
var ErrLiveSessions = errors.New("gnn: refresh with outstanding session views")

// Refresh invalidates the cached per-(graph, parameters) preprocessing —
// the static-edge encodings and the pre-packed weight panels. Call it
// after the source model's parameters change — e.g. between in-situ
// training bursts — so the next Predict re-binds and re-packs.
//
// Refresh must not race concurrent predictions. The caches and panels a
// compile shares with its Session views are refreshed in place, so while
// any view is outstanding Refresh refuses with ErrLiveSessions (and a
// Session view never refreshes — release it and refresh the root).
// Release every view, then Refresh succeeds.
func (e *Inference) Refresh() error {
	if e.root != nil {
		return fmt.Errorf("%w: Refresh called on a session view; release it and refresh the root compile", ErrLiveSessions)
	}
	if n := e.live.Load(); n != 0 {
		return fmt.Errorf("%w: %d outstanding", ErrLiveSessions, n)
	}
	e.lastGraph = nil
	e.staticHe = nil
	if e.shared != nil {
		e.shared.reset()
	}
	if e.f32 != nil {
		e.f32.staticHe32 = nil
	}
	if e.nodeEnc != nil {
		e.nodeEnc.Repack()
		e.edgeEnc.Repack()
		e.dec.Repack()
		for _, p := range e.procs {
			if l, ok := p.(*inferNMP); ok {
				l.edgeMLP.Repack()
				l.nodeMLP.Repack()
			}
		}
	}
	if e.batch != nil {
		e.batch.lastGraph = nil
		e.batch.staticHeB = nil
	}
	return nil
}

// Session returns an independent engine over this compile's immutable
// state: the compiled MLP blocks (parameter twins and pre-packed weight
// panels, shared by pointer — an evaluation keeps no state in them) and
// the static-edge cache are shared, one compile referenced by S sessions;
// the arena, output double-buffer, binding state, message-passing task
// scaffolding, and batched-serving scaffolding are fresh. Sessions may
// predict concurrently — each from its own collective group — and their
// results are bitwise-identical to the source engine's, sample for sample.
//
// Engines that carry per-session-incompatible state refuse: the Float32
// twin snapshots its own packed operands (compile one engine per
// session) and the attention fallback serves through the mutable
// training layer.
//
// A view holds a reference on the compile: Refresh on the root refuses
// (ErrLiveSessions) until every view is Released.
func (e *Inference) Session() (*Inference, error) {
	if e.f32 != nil {
		return nil, fmt.Errorf("gnn: Float32 engines share no compiled core; compile one engine per session")
	}
	root := e
	if e.root != nil {
		root = e.root
	}
	s := &Inference{
		Config:  e.Config,
		arena:   tensor.NewArena(),
		shared:  e.shared,
		nodeEnc: e.nodeEnc,
		edgeEnc: e.edgeEnc,
		dec:     e.dec,
		root:    root,
	}
	for _, p := range e.procs {
		l, ok := p.(*inferNMP)
		if !ok {
			return nil, fmt.Errorf("gnn: processor %T serves through mutable training state; compile one engine per session", p)
		}
		s.procs = append(s.procs, &inferNMP{
			edgeMLP:    l.edgeMLP,
			nodeMLP:    l.nodeMLP,
			disableDeg: l.disableDeg,
			overlap:    l.overlap,
		})
	}
	root.live.Add(1)
	return s, nil
}

// Release returns a Session view's reference on its compile; after the
// last view of a compile releases, Refresh on the root succeeds again.
// Releasing a root engine (or a view twice) is a no-op, so callers can
// defer Release on whatever engine they serve with.
func (e *Inference) Release() {
	if e.root == nil || e.released {
		return
	}
	e.released = true
	e.root.live.Add(-1)
}

// WorkspaceFootprint reports the engine's arena storage in float64s — the
// steady-state per-request workspace (compare Model.WorkspaceFootprint,
// which also carries the backward epoch): the Predict arena plus, once
// PredictBatch has run, the batched one. For a Float32 engine the f32
// activation arena is counted at half a float64 per element, alongside
// the f64 staging arena.
func (e *Inference) WorkspaceFootprint() int {
	n := e.arena.Footprint()
	if e.batch != nil {
		n += e.batch.arena.Footprint()
	}
	if e.f32 != nil {
		n += (e.f32.arena.Footprint() + 1) / 2
	}
	return n
}

// Predict evaluates the engine on this rank's sub-graph: x is the
// NumLocal×InputNodeFeatures node snapshot, the result the
// NumLocal×OutputNodeFeatures prediction, bitwise-equal to
// Model.Forward on the source model. The returned matrix is engine-owned
// and stays valid through ONE subsequent Predict (the same pushforward
// contract as Model.Forward). All ranks must call Predict collectively.
func (e *Inference) Predict(rc *RankContext, x *tensor.Matrix) *tensor.Matrix {
	if x.Rows != rc.Graph.NumLocal() || x.Cols != e.Config.InputNodeFeatures {
		panic(fmt.Sprintf("gnn: inference input %dx%d, want %dx%d",
			x.Rows, x.Cols, rc.Graph.NumLocal(), e.Config.InputNodeFeatures))
	}
	if e.f32 != nil {
		if rc.Graph != e.lastGraph || x.Rows != e.lastRows || x.Cols != e.lastCols {
			e.bind32(rc, x)
		}
		return e.predict32(rc, x)
	}
	if rc.Graph != e.lastGraph || x.Rows != e.lastRows || x.Cols != e.lastCols {
		e.bind(rc, x)
	}
	e.arena.Reset()
	hx := e.nodeEnc.InferForward(e.arena, x)
	he := e.staticHe
	if he == nil {
		he = e.edgeEnc.InferForward(e.arena, rc.edgeInputs7(x, e.arena, 1))
	}
	for _, p := range e.procs {
		hx, he = p.forward(rc, e.arena, hx, he, 1)
	}
	y := e.dec.InferForward(e.arena, hx)
	e.outIdx = 1 - e.outIdx
	out := e.outs[e.outIdx]
	if out == nil || out.Rows != y.Rows || out.Cols != y.Cols {
		out = tensor.New(y.Rows, y.Cols)
		e.outs[e.outIdx] = out
	}
	tensor.CloneInto(out, y)
	return out
}

// bind re-records the engine against a new (graph, shape) pair: the arena
// is cleared and, for static edge features, the edge encoder runs once
// into persistent storage (outside the arena, so the per-request replay
// sequence never contains it). The encoding is bitwise what a per-request
// evaluation would produce — the kernels are deterministic — so caching
// is invisible to the results.
func (e *Inference) bind(rc *RankContext, x *tensor.Matrix) {
	e.arena.Clear()
	e.lastGraph, e.lastRows, e.lastCols = rc.Graph, x.Rows, x.Cols
	e.staticHe = nil
	if e.Config.EdgeMode == EdgeFeatures4 {
		e.staticHe = e.shared.staticFor(rc.Graph, rc.StaticEdge, e.edgeEnc)
	}
}

// Rollout applies the engine autoregressively, state_{n+1} = G(state_n),
// returning the trajectory including the initial state (steps+1
// matrices, each an independent copy) — bitwise-equal to gnn.Rollout on
// the source model. All ranks must call collectively.
func (e *Inference) Rollout(rc *RankContext, x0 *tensor.Matrix, steps int) []*tensor.Matrix {
	if e.Config.InputNodeFeatures != e.Config.OutputNodeFeatures {
		panic(fmt.Sprintf("gnn: rollout needs matching widths, have %d -> %d",
			e.Config.InputNodeFeatures, e.Config.OutputNodeFeatures))
	}
	out := make([]*tensor.Matrix, 0, steps+1)
	state := x0.Clone()
	out = append(out, state)
	for s := 0; s < steps; s++ {
		state = e.Predict(rc, state).Clone()
		out = append(out, state)
	}
	return out
}

// inferNMP is the float64 serving adapter of the Eq. 4 schedule (nmp.go):
// forward-only compiled MLPs, no backward caches, workspaces from whichever
// arena the engine hands the call — Predict's or PredictBatch's.
type inferNMP struct {
	direct64
	edgeMLP, nodeMLP *nn.InferMLP
	disableDeg       bool
	overlap          bool

	fwd nmpTasks[float64]
}

func newInferNMP(l *NMPLayer, overlap bool) *inferNMP {
	return &inferNMP{
		edgeMLP:    l.EdgeMLP.Compile(),
		nodeMLP:    l.NodeMLP.Compile(),
		disableDeg: l.DisableDegreeScaling,
		overlap:    overlap || l.Overlap,
	}
}

func (l *inferNMP) setOverlap(on bool) { l.overlap = on }

func (l *inferNMP) runEdge(in *tensor.Matrix) *tensor.Matrix {
	return l.edgeMLP.InferForward(l.arena, in)
}

func (l *inferNMP) runNode(in *tensor.Matrix) *tensor.Matrix {
	return l.nodeMLP.InferForward(l.arena, in)
}

func (l *inferNMP) forward(rc *RankContext, a *tensor.Arena, x, e *tensor.Matrix, batch int) (xOut, eOut *tensor.Matrix) {
	l.arena = a
	return forwardNMP(l, &l.fwd, rc, x, e, batch, l.overlap, l.disableDeg)
}

// attentionFallback serves an attention processor through the training
// layer's own Forward. It allocates per call (the attention layer keeps
// its own buffers) and writes the layer's backward caches — harmless for
// prediction, but an engine must not run between a model's Forward and
// Backward when they share attention layers.
type attentionFallback struct {
	l *AttentionLayer
}

func (f *attentionFallback) forward(rc *RankContext, _ *tensor.Arena, x, e *tensor.Matrix, _ int) (*tensor.Matrix, *tensor.Matrix) {
	return f.l.Forward(rc, x, e)
}

func (f *attentionFallback) setOverlap(bool) {}
