package gnn

import (
	"math/rand"

	"meshgnn/internal/comm"
	"meshgnn/internal/graph"
	"meshgnn/internal/nn"
	"meshgnn/internal/parallel"
	"meshgnn/internal/tensor"
)

// The consistent neural message passing layer (paper Eq. 4):
//
//	edge update      e_ij ← e_ij + MLP(x_i, x_j, e_ij)            (4a)
//	local edge aggr  a_i   = Σ_{j∈N(i)} e_ij / d_ij               (4b)
//	halo swap        a_halo ← neighbor ranks' local aggregates    (4c)
//	synchronization  a*_i  = a_i + Σ halo copies of node i        (4d)
//	node update      x_i  ← x_i + MLP(a*_i, x_i)                  (4e)
//
// is written once in this file: forwardNMP is the one forward schedule,
// NMPLayer.Backward the one backward schedule, and the seven tasks below
// the only hot loops. Three things differ between the layer's users and
// are supplied by an nmpUser adapter — which MLP flavour runs, where the
// workspaces come from, and how aggregates reach the float64 wire:
//
//	train    *NMPLayer  nn.MLP (keeps backward caches)  tensor.Arena    direct
//	infer64  *pass64    nn.InferMLP                     tensor.Arena    direct
//	infer32  *pass32    nn.InferMLP32                   tensor.Arena32  promote → stage → demote
//
// Everything else is shared. The schedule takes the batch as an argument:
// x is (batch·N_local)×H and e is (batch·N_edges)×H, batch vertically
// stacked samples of one mesh, and an unbatched caller passes 1. Every
// kernel is row-wise and every row walks its CSR span in canonical order
// whatever block it lives in, so sample b of a stacked pass is
// bitwise-identical to a pass over sample b alone, and one halo exchange
// (one frame per neighbor) moves all batch samples' rows.
//
// Steps (4c)–(4d) run only when the rank context's exchanger performs a
// halo exchange; with comm.NoExchange the layer degrades to the standard
// (inconsistent) NMP formulation the paper uses as its baseline.
// Residual connections wrap both MLPs, matching the encode-process-decode
// processors of the MeshGraphNets lineage the paper builds on.
//
// All hot loops run on the intra-rank worker pool through reusable bound
// tasks (no per-call closures). The edge update (4a) and the aggregation
// adjoint partition cleanly over edges; the aggregation (4b), the halo
// synchronization (4d), and the edge-input adjoint scatter partition over
// *receiver* (resp. sender, owner) rows through the graph's CSR indexes,
// so no two workers ever accumulate into the same row — scatter-adds need
// neither atomics nor locks, and every output bit is independent of the
// thread count.
//
// Overlap is a split point, not a second schedule. The exchange of (4c)
// is always Start … Finish; what varies is which rows are computed before
// Start and which between Start and Finish. Synchronous: every row before,
// nothing between. Phased: the boundary prefix of the graph's
// boundary-first permutation (everything the plan sends) before, the
// interior — rows no message can touch — between, hiding the transfer
// behind it. A span that is empty dispatches nothing. Each row is computed
// exactly once with the same per-row order either way, so losses,
// gradients and trained parameters are bitwise unchanged for any
// transport and thread count.

// elem is the element type of an activation matrix.
type elem interface{ float32 | float64 }

// rowsOf is the value view of a row-major matrix the tasks index. The
// tasks are parameterised over the element type, not the matrix type:
// *tensor.Matrix and *tensor.Matrix32 are both pointers — one GC shape —
// so a type parameter with a Row method would compile to a dictionary
// call per row, where this row inlines into monomorphic loops.
type rowsOf[T elem] struct {
	data []T
	cols int
}

func (v rowsOf[T]) row(i int) []T { return v.data[i*v.cols : (i+1)*v.cols] }

// span is a set of one sample's rows (nodes or edges): the n listed in
// idx or, with idx nil, all n in storage order.
type span struct {
	idx []int
	n   int
}

func (s span) at(q int) int {
	if s.idx != nil {
		return s.idx[q]
	}
	return q
}

// splitNodes is the forward split point: the rows aggregated before the
// exchange starts, and those computed while it flies.
func splitNodes(g *graph.Local, overlap bool) (before, during span) {
	if overlap {
		nb := g.NumBoundary
		return span{g.NodeOrder[:nb], nb}, span{g.NodeOrder[nb:], g.NumLocal() - nb}
	}
	return span{n: g.NumLocal()}, span{}
}

// splitEdges is the backward split point: the edges whose receivers no
// incoming gradient can touch are gathered while the adjoint exchange
// flies, the boundary-receiver edges after it.
func splitEdges(g *graph.Local, overlap bool) (during, after span) {
	if overlap {
		nbe := g.NumBoundaryEdges
		return span{g.EdgeOrder[nbe:], g.NumEdges() - nbe}, span{g.EdgeOrder[:nbe], nbe}
	}
	return span{}, span{n: g.NumEdges()}
}

// edgeGrain bounds chunk dispatch overhead for per-edge loops of width h.
func edgeGrain(h int) int {
	g := 4096 / (3 * h)
	if g < 8 {
		g = 8
	}
	return g
}

// blockRunner is a task whose flat index space is batch stacked copies of
// an n-long per-sample one; block runs positions [lo, hi) of sample b.
type blockRunner interface{ block(b, lo, hi int) }

// runBlocks walks the flat range [lo, hi) one sample block at a time, so
// the (b, q) = (p / n, p % n) decomposition is paid per block, not per
// row: a batch of one never divides inside its row loop.
func runBlocks(t blockRunner, n, lo, hi int) {
	for lo < hi {
		b, q := lo/n, lo%n
		m := min(n-q, hi-lo)
		t.block(b, q, q+m)
		lo += m
	}
}

// edgeInTask assembles the (x_i ‖ x_j ‖ e_ij) edge-input rows (4a); each
// row is written once, gathering within its own sample block.
type edgeInTask[T elem] struct {
	g         *graph.Local
	x, e, out rowsOf[T]
	h         int
}

func (t *edgeInTask[T]) Run(lo, hi int) { runBlocks(t, t.g.NumEdges(), lo, hi) }

func (t *edgeInTask[T]) block(b, lo, hi int) {
	h := t.h
	xo, eo := b*t.g.NumLocal(), b*t.g.NumEdges()
	for k := lo; k < hi; k++ {
		ed := t.g.Edges[k]
		row := t.out.row(eo + k)
		copy(row[:h], t.x.row(xo+ed[1]))    // x_i (receiver)
		copy(row[h:2*h], t.x.row(xo+ed[0])) // x_j (sender)
		copy(row[2*h:], t.e.row(eo+k))      // e_ij
	}
}

// aggTask is the degree-scaled receiver aggregation (4b): each worker owns
// a span of receiver rows and walks their incoming edges in canonical CSR
// order — the per-row summation order of a serial edge sweep, for any
// thread count, batch and split. The 1/d factor is rounded to T once per
// edge.
type aggTask[T elem] struct {
	g          *graph.Local
	eOut, agg  rowsOf[T]
	disableDeg bool
	rows       span
}

func (t *aggTask[T]) Run(lo, hi int) { runBlocks(t, t.rows.n, lo, hi) }

func (t *aggTask[T]) block(b, lo, hi int) {
	g := t.g
	xo, eo := b*g.NumLocal(), b*g.NumEdges()
	for q := lo; q < hi; q++ {
		i := t.rows.at(q)
		dst := t.agg.row(xo + i)
		for k := g.RecvStart[i]; k < g.RecvStart[i+1]; k++ {
			src := t.eOut.row(eo + k)
			inv := T(1)
			if !t.disableDeg {
				inv = T(1 / g.EdgeDegree[k])
			}
			for j, v := range src {
				dst[j] += inv * v
			}
		}
	}
}

// absorbTask is the synchronization step (4d): owners absorb their halo
// copies through the owner-grouped halo CSR, each owner row written by
// exactly one worker, contributions applied in ascending halo-row order
// (the serial sweep's order). Interior rows own no halo copies (Validate
// enforces it), so restricting the sweep to the boundary prefix drops only
// no-ops.
type absorbTask[T elem] struct {
	g         *graph.Local
	agg, halo rowsOf[T]
	rows      span
}

func (t *absorbTask[T]) Run(lo, hi int) { runBlocks(t, t.rows.n, lo, hi) }

func (t *absorbTask[T]) block(b, lo, hi int) {
	g := t.g
	xo, ho := b*g.NumLocal(), b*g.NumHalo()
	for q := lo; q < hi; q++ {
		i := t.rows.at(q)
		dst := t.agg.row(xo + i)
		for p := g.HaloStart[i]; p < g.HaloStart[i+1]; p++ {
			src := t.halo.row(ho + g.HaloPerm[p])
			for j, v := range src {
				dst[j] += v
			}
		}
	}
}

// hcatTask assembles node-MLP input rows (a* ‖ x) (4e) for a span of every
// sample block.
type hcatTask[T elem] struct {
	agg, x, out rowsOf[T]
	h, nl       int
	rows        span
}

func (t *hcatTask[T]) Run(lo, hi int) { runBlocks(t, t.rows.n, lo, hi) }

func (t *hcatTask[T]) block(b, lo, hi int) {
	for q := lo; q < hi; q++ {
		r := b*t.nl + t.rows.at(q)
		row := t.out.row(r)
		copy(row[:t.h], t.agg.row(r))
		copy(row[t.h:], t.x.row(r))
	}
}

// nmpUser is what differs between the users of the one Eq. 4 schedule. M
// is the user's matrix handle, opaque to the schedule, and T its element
// type. Adapters are persistent structs behind a pointer, so driving the
// schedule through one allocates nothing.
type nmpUser[T elem, M any] interface {
	// get draws a rows×cols workspace, cleared if zeroed.
	get(rows, cols int, zeroed bool) M
	view(m M) rowsOf[T]
	// runEdge and runNode evaluate the layer's two MLPs.
	runEdge(in M) M
	runNode(in M) M
	// addInto is the residual connection dst += src.
	addInto(dst, src M)
	// toWire returns the float64 matrices the halo exchange gathers the
	// aggregates from and scatters the halo copies into; fromWire lands
	// what arrived in halo.
	toWire(agg, halo M) (src, dst *tensor.Matrix)
	fromWire(halo M)
}

// nmpTasks holds the forward schedule's bound tasks, reused across calls.
type nmpTasks[T elem] struct {
	edgeInT edgeInTask[T]
	aggT    aggTask[T]
	absorbT absorbTask[T]
	hcatT   hcatTask[T]
}

// forwardNMP applies Eq. 4 to batch stacked samples: x is
// (batch·N_local)×H, e is (batch·N_edges)×H, and the returned pair the
// updated features, drawn from u's workspaces.
func forwardNMP[T elem, M any](u nmpUser[T, M], t *nmpTasks[T], rc *RankContext,
	x, e M, batch int, overlap, disableDeg bool) (xOut, eOut M) {
	g := rc.Graph
	xv := u.view(x)
	h := xv.cols
	nl, ne := g.NumLocal(), g.NumEdges()
	grain := edgeGrain(h)

	// (4a) edge update with residual.
	edgeIn := u.get(batch*ne, 3*h, false)
	t.edgeInT = edgeInTask[T]{g: g, x: xv, e: u.view(e), out: u.view(edgeIn), h: h}
	parallel.ForTask(batch*ne, grain, &t.edgeInT)
	eOut = u.runEdge(edgeIn)
	u.addInto(eOut, e)

	// (4b)–(4d): degree-scaled receiver aggregation, halo swap, and
	// owner-grouped synchronization. The halo staging buffer is zeroed
	// because NoExchange leaves it untouched (and must then contribute
	// exactly nothing in 4d).
	agg := u.get(batch*nl, h, true)
	halo := u.get(batch*g.NumHalo(), h, true)
	nodeIn := u.get(batch*nl, 2*h, false)
	av := u.view(agg)
	before, during := splitNodes(g, overlap)

	t.aggT = aggTask[T]{g: g, eOut: u.view(eOut), agg: av, disableDeg: disableDeg, rows: before}
	parallel.ForTask(batch*before.n, grain, &t.aggT)
	// The plan sends boundary rows only, and those are final here.
	src, dst := u.toWire(agg, halo)
	rc.Ex.Start(rc.Comm, comm.Forward, src, dst, batch)

	t.aggT.rows = during
	parallel.ForTask(batch*during.n, grain, &t.aggT)
	t.hcatT = hcatTask[T]{agg: av, x: xv, out: u.view(nodeIn), h: h, nl: nl, rows: during}
	parallel.ForTask(batch*during.n, grain, &t.hcatT)

	rc.Ex.Finish(rc.Comm)
	u.fromWire(halo)
	t.absorbT = absorbTask[T]{g: g, agg: av, halo: u.view(halo), rows: before}
	parallel.ForTask(batch*before.n, grain, &t.absorbT)
	t.hcatT.rows = before
	parallel.ForTask(batch*before.n, grain, &t.hcatT)

	// (4e) node update with residual.
	xOut = u.runNode(nodeIn)
	u.addInto(xOut, x)
	return xOut, eOut
}

// direct64 is the adapter half the two float64 users share: workspaces
// from a tensor.Arena (nil allocates), aggregates on the wire as they are.
type direct64 struct{ arena *tensor.Arena }

func (d *direct64) get(rows, cols int, zeroed bool) *tensor.Matrix {
	if zeroed {
		return d.arena.GetZeroed(rows, cols)
	}
	return d.arena.Get(rows, cols)
}

func (*direct64) view(m *tensor.Matrix) rowsOf[float64] { return rowsOf[float64]{m.Data, m.Cols} }
func (*direct64) addInto(dst, src *tensor.Matrix)       { tensor.AddScaled(dst, 1, src) }
func (*direct64) fromWire(*tensor.Matrix)               {}
func (*direct64) toWire(agg, halo *tensor.Matrix) (src, dst *tensor.Matrix) {
	return agg, halo
}

// NMPLayer is the trainable consistent NMP layer: the train adapter of the
// Eq. 4 schedule (its MLPs cache the stacked activations their backward
// needs) plus the backward schedule.
//
// With SetArena, every per-step matrix (edge inputs, aggregates, halo
// staging, node inputs, and all backward intermediates) comes from the
// shared workspace arena: after the first step the layer allocates
// nothing.
type NMPLayer struct {
	EdgeMLP *nn.MLP // (x_dst ‖ x_src ‖ e) → H
	NodeMLP *nn.MLP // (a* ‖ x) → H

	// DisableDegreeScaling drops the 1/d_ij factor in (4b), an ablation
	// that double-counts shared-face edges and breaks consistency; used
	// to demonstrate why the scaling is load-bearing.
	DisableDegreeScaling bool

	// Overlap selects the phased split point (set from Config.Overlap by
	// NewModel; bitwise-identical to the synchronous one).
	Overlap bool

	direct64

	// the most recent forward's context and batch, for Backward
	rc    *RankContext
	batch int

	// bound parallel-region tasks, reused across steps
	fwd    nmpTasks[float64]
	dHaloT dHaloTask
	dEOutT dEOutTask
	scatT  scatterTask
}

// NewNMPLayer builds the layer's MLPs.
func NewNMPLayer(name string, hidden, mlpHidden int, rng *rand.Rand) *NMPLayer {
	return &NMPLayer{
		EdgeMLP: nn.NewMLP(name+".edge", 3*hidden, hidden, hidden, mlpHidden, true, rng),
		NodeMLP: nn.NewMLP(name+".node", 2*hidden, hidden, hidden, mlpHidden, true, rng),
	}
}

// SetArena implements nn.ArenaUser: the layer and its MLPs draw all
// per-step workspaces from a.
func (l *NMPLayer) SetArena(a *tensor.Arena) {
	l.arena = a
	l.EdgeMLP.SetArena(a)
	l.NodeMLP.SetArena(a)
}

func (l *NMPLayer) runEdge(in *tensor.Matrix) *tensor.Matrix { return l.EdgeMLP.Forward(in) }
func (l *NMPLayer) runNode(in *tensor.Matrix) *tensor.Matrix { return l.NodeMLP.Forward(in) }

// Forward applies the layer to one sample: x (Nlocal×H) and e (Ne×H) are
// the hidden node and edge features; the returned pair are the updated
// features (arena-owned when an arena is set — valid until the owning
// model's next forward pass).
func (l *NMPLayer) Forward(rc *RankContext, x, e *tensor.Matrix) (xOut, eOut *tensor.Matrix) {
	return l.forward(rc, x, e, 1)
}

// forward applies the layer to batch stacked samples and remembers the
// context and batch for Backward.
func (l *NMPLayer) forward(rc *RankContext, x, e *tensor.Matrix, batch int) (xOut, eOut *tensor.Matrix) {
	l.rc, l.batch = rc, batch
	return forwardNMP(l, &l.fwd, rc, x, e, batch, l.Overlap, l.DisableDegreeScaling)
}

// Backward propagates gradients dxOut, deOut through the layer after the
// matching forward — stacked like its inputs — returning gradients with
// respect to x and e. Parameter gradients accumulate into the MLPs, per
// sample block in ascending order (bitwise the sequential accumulation).
// The halo exchange is differentiated by its adjoint: halo-row gradients
// travel back to the ranks whose aggregates populated them (the
// torch.distributed.nn behaviour the paper depends on for Eq. 3).
func (l *NMPLayer) Backward(dxOut, deOut *tensor.Matrix) (dx, de *tensor.Matrix) {
	rc, batch := l.rc, l.batch
	g := rc.Graph
	h := dxOut.Cols
	nl, ne, nh := g.NumLocal(), g.NumEdges(), g.NumHalo()
	grain := edgeGrain(h)

	// (4e) node update backward; residual passes dxOut straight through.
	// The concatenated input gradient splits into column views instead of
	// copies: the aggregate half is materialized (the adjoint exchange
	// scatter-adds into it), the x half is consumed in place.
	dNodeIn := l.NodeMLP.BackwardBatched(dxOut, batch)
	dAgg := l.arena.Get(batch*nl, h)
	tensor.CopyViewInto(dAgg, dNodeIn.View(0, h))
	dx = l.arena.Get(batch*nl, h)
	tensor.CloneInto(dx, dxOut)
	tensor.AddScaledView(dx, 1, dNodeIn.View(h, h))

	// (4d) synchronization backward: each halo row's gradient is its
	// owner's aggregate gradient; the local aggregate keeps dAgg.
	dHalo := l.arena.Get(batch*nh, h)
	l.dHaloT = dHaloTask{g: g, dAgg: dAgg, dHalo: dHalo}
	parallel.ForTask(batch*nh, grain, &l.dHaloT)

	// (4c) halo swap adjoint: halo gradients scatter-add into the
	// neighbors' local aggregate gradients — boundary rows only, so the
	// gather for interior-receiver edges can run while they fly. (4b)
	// aggregation backward: de_k = dAgg[dst_k] / d_k plus the direct deOut
	// path, every edge row written exactly once.
	dEOut := l.arena.Get(batch*ne, h)
	during, after := splitEdges(g, l.Overlap)
	rc.Ex.Start(rc.Comm, comm.Adjoint, dHalo, dAgg, batch)
	l.dEOutT = dEOutTask{g: g, dAgg: dAgg, deOut: deOut, dOut: dEOut,
		disableDeg: l.DisableDegreeScaling, edges: during}
	parallel.ForTask(batch*during.n, grain, &l.dEOutT)
	rc.Ex.Finish(rc.Comm)
	l.dEOutT.edges = after
	parallel.ForTask(batch*after.n, grain, &l.dEOutT)

	// (4a) edge update backward; residual passes dEOut to de.
	dEdgeIn := l.EdgeMLP.BackwardBatched(dEOut, batch)
	de = l.arena.Get(batch*ne, h)
	tensor.CloneInto(de, dEOut)
	tensor.AddScaledView(de, 1, dEdgeIn.View(2*h, h))
	// The receiver-side gradient scatters along the (dst,src)-sorted
	// edges directly; the sender-side gradient scatters through the
	// sender-grouped permutation. Both partition by destination row.
	l.scatT = scatterTask{g: g, dst: dx, src: dEdgeIn.View(0, h), start: g.RecvStart}
	parallel.ForTask(batch*nl, grain, &l.scatT)
	l.scatT.src, l.scatT.start, l.scatT.order = dEdgeIn.View(h, h), g.SendStart, g.SendPerm
	parallel.ForTask(batch*nl, grain, &l.scatT)
	return dx, de
}

// Params returns the layer's trainable parameters.
func (l *NMPLayer) Params() []*nn.Param {
	return append(l.EdgeMLP.Params(), l.NodeMLP.Params()...)
}

// dHaloTask is the synchronization adjoint (4d backward): each halo row's
// gradient is its owner's aggregate gradient within the same sample block
// — a pure gather, every halo row written once.
type dHaloTask struct {
	g           *graph.Local
	dAgg, dHalo *tensor.Matrix
}

func (t *dHaloTask) Run(lo, hi int) { runBlocks(t, t.g.NumHalo(), lo, hi) }

func (t *dHaloTask) block(b, lo, hi int) {
	xo, ho := b*t.g.NumLocal(), b*t.g.NumHalo()
	for hr := lo; hr < hi; hr++ {
		copy(t.dHalo.Row(ho+hr), t.dAgg.Row(xo+t.g.HaloOwner[hr]))
	}
}

// dEOutTask is the aggregation backward (4b adjoint) over a span of every
// sample block's edges: de_k = dAgg[dst_k] / d_k, a pure gather, then the
// upstream deOut gradient (it also flows directly into eOut) folded in —
// two separately rounded steps per element.
type dEOutTask struct {
	g                 *graph.Local
	dAgg, deOut, dOut *tensor.Matrix
	disableDeg        bool
	edges             span
}

func (t *dEOutTask) Run(lo, hi int) { runBlocks(t, t.edges.n, lo, hi) }

func (t *dEOutTask) block(b, lo, hi int) {
	g := t.g
	xo, eo := b*g.NumLocal(), b*g.NumEdges()
	for q := lo; q < hi; q++ {
		k := t.edges.at(q)
		src := t.dAgg.Row(xo + g.Edges[k][1])
		dst := t.dOut.Row(eo + k)
		inv := 1.0
		if !t.disableDeg {
			inv = 1 / g.EdgeDegree[k]
		}
		for j, v := range src {
			dst[j] = inv * v
		}
		for j, v := range t.deOut.Row(eo + k) {
			dst[j] += v
		}
	}
}

// scatterTask is the edge-input adjoint scatter: each destination node row
// walks its CSR edge span in ascending order within its own sample block,
// so no two workers touch one row and every accumulation order is that of
// a serial sweep over the sample.
type scatterTask struct {
	g     *graph.Local
	dst   *tensor.Matrix // (batch·N_local)×h
	src   tensor.View    // (batch·N_edges) rows
	start []int          // CSR over local nodes
	order []int          // nil (canonical) or the sender-grouped permutation
}

func (t *scatterTask) Run(lo, hi int) { runBlocks(t, t.g.NumLocal(), lo, hi) }

func (t *scatterTask) block(b, lo, hi int) {
	xo, eo := b*t.g.NumLocal(), b*t.g.NumEdges()
	for i := lo; i < hi; i++ {
		dst := t.dst.Row(xo + i)
		for p := t.start[i]; p < t.start[i+1]; p++ {
			k := p
			if t.order != nil {
				k = t.order[p]
			}
			for j, v := range t.src.Row(eo + k) {
				dst[j] += v
			}
		}
	}
}
