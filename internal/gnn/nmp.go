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
// NMPLayer.Backward the one backward schedule, and the tasks below the only
// hot loops. Three things differ between the layer's users and are supplied
// by an nmpUser adapter — which MLP flavour runs (and so whose copy of the
// edge MLP's first-Linear weights the projections read), where the
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
// The edge MLP's first Linear is linear in its concatenated input, so it
// is evaluated as the sum of the parts' products,
//
//	(x_i ‖ x_j ‖ e_ij)·W + b = (e_ij·W_2 + b) + (x_i·W_0 + x_j·W_1)
//
// with W_0, W_1, W_2 the row blocks of W (nn.SplitLinear): the node parts
// P = x·W_0 and Q = x·W_1 once per node, by the stage that produced x,
// instead of once per edge the node is on (six at p = 2), and the edge
// head adds P_i + Q_j to the edge part. In exact arithmetic that is the
// paper's product; rounded, it is grouped differently, the same way for
// every user. The weights keep their 3H×H shape, so checkpoints do not
// change.
//
// A layer is at most three regions. Aggregation (edges → nodes) and the
// halo exchange are the only true barriers of Eq. 4, so the forward pass is
//
//	edge stage   [(e_ij·W_2 + b) + (P_i + Q_j) → rest of the edge   one region
//	             MLP → + e_ij]
//	aggregate    (4b) over the rows the plan sends → Start         one region, none on one rank
//	             (4b) over the interior rows → Finish              phased split only
//	node stage   [absorb halo copies; (4b) over the interior rows  one region
//	             when synchronous; (a* ‖ x) → node MLP → + x →
//	             P, Q of x for the next layer (not after the last)]
//
// (P and Q of the first layer ride the node encoder's region the same
// way), and the first Linear, the concatenation, the interior aggregate of
// the synchronous split, the two residual adds and the projection are not
// loops of their own: they are the head and the tail (nn.PreHead,
// nn.RowMap) of the MLP block's row panels, run by whichever thread
// carries the panel through the block, on rows that are in its cache.
// Which loops are what:
//
//	regions      aggTask; backward: dHaloTask, dEOutTask over the
//	             during-exchange span
//	heads        edgeHeadTask (4a first Linear: the edge part's product
//	             over the panel, then a tensor.GatherAddEdgeRows call per
//	             sample block), nodeInTask (4d absorb, 4b of the interior
//	             rows when synchronous, 4e concat); backward: dEOutTask
//	             over the edges gathered after Finish, nodeSumTask (the
//	             first Linear's node parts: dPre summed per node)
//	tails        residualTask (+ e), projectTask (+ x, then P and Q);
//	             backward: nodeGradTask (dAgg and dx from the node-MLP
//	             input gradient), edgeGradTask (de), addToTask (dx from
//	             the node parts)
//
// and which kernels run a row's arithmetic: every CSR span sum — aggRow
// (4b), absorbHalo (4d) and nodeSumTask's receiver and sender spans — is
// one tensor.SpanAcc call per span, the row held in registers, its Go loop
// the definition and the go rung's kernel; every plain row add
// (residualTask, projectTask, nodeGradTask, edgeGradTask, addToTask,
// dEOutTask's deOut) is tensor.AddTo; every product is the linear layer's
// own kernel.
//
// A head or tail has to be a row map — rows [r0, r1) computed from inputs
// no other panel of the same region writes — because panels run in any
// order on any thread; that is what makes fusing it a change of schedule
// and not of arithmetic: every row still sees its own operation sequence.
// No user builds an N_edges×3H edge input, not even a panel of one — the
// edge head writes the first Linear's H-wide output. What they hold
// instead is P and Q, 2·N_local×H per layer. The forward-only users do not
// hold the N_local×2H node input either (a panel of it lives in the
// evaluator's scratch); the training layer does, because the node MLP's
// weight gradient reads it back.
//
// The training backward is the exact adjoint of the split map, so it
// never builds a 3H-wide row either. The edge MLP goes back to its first
// Linear's pre-activation gradient dPre (nn.MLP.BackwardPre), and its edge
// part runs per edge in the same region: de += dPre·W_2ᵀ, dW_2 += eᵀ·dPre
// and the bias gradient. The node parts were multiplied per node, so their
// gradients are per node, S_r[i] = Σ dPre_k over the edges k that node i
// receives and S_s[j] = Σ dPre_k over those j sends, and one region over
// the nodes (nn.MLP.BackwardParts) adds S_r·W_0ᵀ + S_s·W_1ᵀ to dx and
// reduces dW_0 += xᵀ·S_r, dW_1 += xᵀ·S_s. The layer reads x and e back
// for these: they are its inputs, which it holds anyway.
//
// The region tasks and the heads that gather across rows partition over
// edges or over *receiver* (resp. sender, owner) rows through the graph's
// CSR indexes, so no two workers ever accumulate into the same row —
// scatter-adds need neither atomics nor locks, and every output bit is
// independent of the thread count. All of them are reusable bound structs
// (no per-call closures).
//
// Overlap is a split point, not a second schedule. The exchange of (4c)
// is always Start … Finish, and the boundary prefix of the graph's
// boundary-first permutation (everything the plan sends) is aggregated
// before Start; what varies is where the interior rows — rows no message
// can touch — are aggregated. Phased: between Start and Finish, hiding the
// transfer behind them. Synchronous: after Finish, by the node stage's
// head, straight into the panel the node MLP reads — an interior row owns
// no halo copy, so its a* is its aggregate and it needs no row of the
// aggregate matrix. A span that is empty dispatches nothing: on one rank
// the prefix is empty, and a synchronous layer is two regions. Each row
// is computed exactly once by the one per-row function (aggRow), so
// losses, gradients and trained parameters are bitwise unchanged for any
// split, transport and thread count.

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
// exchange starts — the boundary prefix, everything the plan sends — and
// the interior rows aggregated while it flies: all of them when phased,
// none when synchronous, where the node stage's head sums them instead.
func splitNodes(g *graph.Local, overlap bool) (before, during span) {
	nb := g.NumBoundary
	before = span{g.NodeOrder[:nb], nb}
	if overlap {
		during = span{g.NodeOrder[nb:], g.NumLocal() - nb}
	}
	return before, during
}

// edgesDuring is the backward split point: the edges whose receivers no
// incoming gradient can touch are gathered while the adjoint exchange
// flies; the rest — the boundary-receiver edges, or every edge when
// synchronous — after it, as the head of the edge-MLP chain.
func edgesDuring(g *graph.Local, overlap bool) span {
	if overlap {
		nbe := g.NumBoundaryEdges
		return span{g.EdgeOrder[nbe:], g.NumEdges() - nbe}
	}
	return span{}
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

// splitBlock cuts the flat range [lo, hi) at the first sample-block
// boundary: positions [q, q+m) of sample b.
func splitBlock(n, lo, hi int) (b, q, m int) {
	b, q = lo/n, lo%n
	return b, q, min(n-q, hi-lo)
}

// runBlocks walks the flat range [lo, hi) one sample block at a time, so
// the (b, q) = (p / n, p % n) decomposition is paid per block, not per
// row: a batch of one never divides inside its row loop.
func runBlocks(t blockRunner, n, lo, hi int) {
	for lo < hi {
		b, q, m := splitBlock(n, lo, hi)
		t.block(b, q, q+m)
		lo += m
	}
}

// The parts of the edge MLP's input, in the order it concatenates them:
// (x_i ‖ x_j ‖ e_ij), the receiver's features, the sender's, the edge's.
const (
	recvPart = iota
	sendPart
	edgePart
	edgeParts
)

// edgeHeadTask is the head of the edge stage (4a). The edge MLP's first
// Linear is linear in its concatenated input, (x_i ‖ x_j ‖ e_ij)·W =
// x_i·W_0 + x_j·W_1 + e_ij·W_2 (nn.SplitLinear), and the stage that
// produced x has already multiplied every node row by the two node parts
// (projectTask): P = x·W_0, Q = x·W_1, once per node instead of once per
// edge the node is on. The head writes the Linear's output, the
// pre-activation, for one panel of edges,
//
//	pre_k = (e_k·W_2 + b) + (P_i + Q_j)      i the receiver, j the sender
//
// — one product over the panel's edge rows, then one
// tensor.GatherAddEdgeRows call per sample block segment of the panel,
// which indexes P and Q within that block — and the block runs from its
// first ELU on. Its panel arguments are per call and its own state
// read-only, so it walks the sample blocks itself (splitBlock) instead of
// through runBlocks.
type edgeHeadTask[T elem] struct {
	g     *graph.Local
	e     rowsOf[T]
	p, q  rowsOf[T]
	first nn.SplitLinear[T]
}

func (t *edgeHeadTask[T]) PreRows(pre []T, r0, r1 int) {
	g, h := t.g, t.e.cols
	blk := g.NumLocal() * h
	t.first.MulRows(pre, t.e.data[r0*h:r1*h], r1-r0, edgePart, true)
	for lo := r0; lo < r1; {
		b, q, m := splitBlock(g.NumEdges(), lo, r1)
		tensor.GatherAddEdgeRows(pre[h*(lo-r0):h*(lo-r0+m)], t.p.data[b*blk:(b+1)*blk],
			t.q.data[b*blk:(b+1)*blk], g.Edges[q:q+m], h)
		lo += m
	}
}

// residualTask is the tail of the edge stage, the residual connection: the
// block's output rows += the stage's input rows e_ij.
type residualTask[T elem] struct{ src rowsOf[T] }

func (t *residualTask[T]) Rows(p []T, r0, r1 int) {
	c := t.src.cols
	tensor.AddTo(p, t.src.data[r0*c:r1*c])
}

// projectTask finishes node rows for the next edge stage: the residual
// connection first where src is set (+ x_i, the node stage's), then the
// projection of the finished rows through the next layer's edge MLP, P =
// x·W_0 and Q = x·W_1 (no bias), into the stacked projection (projViews).
// It is the tail of the region that produced the rows — the node encoder
// for the first layer, the node stage for the others; the last layer's
// node stage has no next and projects nothing — and, for a caller with no
// such region (project), a region of its own over x. Every local row is
// projected, shared copies included, so the rank and overlap logic never
// sees it.
type projectTask[T elem] struct {
	src, x rowsOf[T]
	next   nn.SplitLinear[T]
	p, q   rowsOf[T]
}

func (t *projectTask[T]) Rows(out []T, r0, r1 int) {
	if t.src.data != nil {
		c := t.src.cols
		tensor.AddTo(out, t.src.data[r0*c:r1*c])
	}
	if t.next.Valid() {
		h := t.p.cols
		t.next.MulRows(t.p.data[r0*h:r1*h], out, r1-r0, recvPart, false)
		t.next.MulRows(t.q.data[r0*h:r1*h], out, r1-r0, sendPart, false)
	}
}

// Run projects rows [lo, hi) of x.
func (t *projectTask[T]) Run(lo, hi int) {
	c := t.x.cols
	t.Rows(t.x.data[lo*c:hi*c], lo, hi)
}

// projViews splits a stacked projection, 2·rows rows of H, into its
// halves: P = x·W_0 over rows [0, rows) and Q = x·W_1 over the rest, each
// stacked by sample like x.
func projViews[T elem](pq rowsOf[T]) (p, q rowsOf[T]) {
	n := len(pq.data) / 2
	return rowsOf[T]{pq.data[:n], pq.cols}, rowsOf[T]{pq.data[n:], pq.cols}
}

// aggRow is the degree-scaled receiver aggregation (4b) of one row: dst =
// Σ_k e_k / d_k over row i's incoming edges, summed from +0 in canonical
// CSR order — the per-row summation order of a serial edge sweep — with
// the 1/d factor (g.InvEdgeDegree, divided once at build) rounded to T
// once per edge and the product rounded before its add. eo is the edge
// offset of the row's sample block. Both loops that aggregate call it, so
// a row's bits do not depend on which one it lands in. The loop is the
// definition; tensor.SpanAcc runs it on the SIMD rungs.
func aggRow[T elem](dst []T, g *graph.Local, eOut rowsOf[T], eo, i int) {
	clear(dst)
	k0, k1 := g.RecvStart[i], g.RecvStart[i+1]
	if tensor.SpanAcc(dst, eOut.data, eOut.cols, eo+k0, nil, k1-k0, g.InvEdgeDegree[k0:k1]) {
		return
	}
	for k := k0; k < k1; k++ {
		inv := T(g.InvEdgeDegree[k])
		for j, v := range eOut.row(eo + k) {
			dst[j] += T(inv * v)
		}
	}
}

// aggTask is the aggregation region: each worker owns a span of receiver
// rows and aggregates them (aggRow) into the aggregate matrix, so the
// result is the same for any thread count, batch and split.
type aggTask[T elem] struct {
	g         *graph.Local
	eOut, agg rowsOf[T]
	rows      span
}

func (t *aggTask[T]) Run(lo, hi int) { runBlocks(t, t.rows.n, lo, hi) }

func (t *aggTask[T]) block(b, lo, hi int) {
	g := t.g
	xo, eo := b*g.NumLocal(), b*g.NumEdges()
	for q := lo; q < hi; q++ {
		i := t.rows.at(q)
		aggRow(t.agg.row(xo+i), g, t.eOut, eo, i)
	}
}

// nodeInTask is the head of the node stage: the synchronization step (4d)
// and the (a* ‖ x) concatenation of (4e) for one panel of node rows. Each
// owner row absorbs its halo copies through the owner-grouped halo CSR, in
// ascending halo-row order (the serial sweep's order), straight into the
// a* half of its input row — the aggregate matrix is only read, so a row's
// sum a_i + copy + copy … is the one an in-place absorb would compute. A
// row that owns no halo copy (every interior row: Validate enforces it)
// absorbs nothing. Under the synchronous split no region aggregated the
// interior rows (aggInterior), so the head does: it sums an interior row's
// incoming edges (aggRow) straight into the a* half — the row has nothing
// else to add, so its a* is the sum the region would have stored.
type nodeInTask[T elem] struct {
	g            *graph.Local
	eOut         rowsOf[T]
	agg, halo, x rowsOf[T]
	aggInterior  bool
}

func (t *nodeInTask[T]) Rows(p []T, r0, r1 int) {
	g, h := t.g, t.x.cols
	out := rowsOf[T]{p, 2 * h}
	for lo := r0; lo < r1; {
		b, q, m := splitBlock(g.NumLocal(), lo, r1)
		ho, eo := b*g.NumHalo(), b*g.NumEdges()
		for i := q; i < q+m; i++ {
			r := lo + i - q
			row := out.row(r - r0)
			dst := row[:h]
			if t.aggInterior && g.NodeDegree[i] <= 1 {
				aggRow(dst, g, t.eOut, eo, i)
			} else {
				copy(dst, t.agg.row(r))
				if c0, c1 := g.HaloStart[i], g.HaloStart[i+1]; c1 > c0 {
					absorbHalo(dst, g, t.halo, ho, c0, c1)
				}
			}
			copy(row[h:], t.x.row(r))
		}
		lo += m
	}
}

// absorbHalo adds an owner row's halo copies c0 … c1−1 (halo CSR order,
// rows of the sample block at ho) into dst, one rounded add each: the
// loop is the definition, tensor.SpanAcc its SIMD rung.
func absorbHalo[T elem](dst []T, g *graph.Local, halo rowsOf[T], ho, c0, c1 int) {
	if tensor.SpanAcc(dst, halo.data, halo.cols, ho, g.HaloPerm[c0:c1], c1-c0, nil) {
		return
	}
	for hc := c0; hc < c1; hc++ {
		for j, v := range halo.row(ho + g.HaloPerm[hc]) {
			dst[j] += v
		}
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
	// runEdge and runNode evaluate the layer's two MLPs over rows rows as
	// one region each: head fills the block's input a panel at a time — for
	// the edge MLP, the first Linear's output and the block runs from its
	// first ELU on — and tail finishes each panel of the returned output.
	runEdge(rows int, head nn.PreHead[T], tail nn.RowMap[T]) M
	runNode(rows int, head, tail nn.RowMap[T]) M
	// edgeFirst is the layer's edge-MLP first Linear as its input parts.
	edgeFirst() nn.SplitLinear[T]
	// toWire returns the float64 matrices the halo exchange gathers the
	// aggregates of g's stacked samples from and scatters the halo copies
	// into; fromWire lands what arrived in halo.
	toWire(g *graph.Local, agg, halo M) (src, dst *tensor.Matrix)
	fromWire(halo M)
}

// nmpTasks holds the forward schedule's bound tasks, reused across calls.
type nmpTasks[T elem] struct {
	edgeT   edgeHeadTask[T]
	aggT    aggTask[T]
	nodeInT nodeInTask[T]
	resT    residualTask[T]
	projT   projectTask[T]
}

// forwardNMP applies Eq. 4 to batch stacked samples: x is
// (batch·N_local)×H, e is (batch·N_edges)×H and pq is x's projection
// through this layer's edge MLP (projViews). The returned triple is the
// updated features and xOut's projection through next, the next layer's
// edge-MLP first Linear — M's zero value where next is the zero
// SplitLinear, after the last layer — all drawn from u's workspaces.
func forwardNMP[T elem, M any](u nmpUser[T, M], t *nmpTasks[T], rc *RankContext,
	x, e, pq M, batch int, overlap bool, next nn.SplitLinear[T]) (xOut, eOut, pqOut M) {
	g := rc.Graph
	xv, ev := u.view(x), u.view(e)
	h := xv.cols
	nl, ne := g.NumLocal(), g.NumEdges()
	grain := edgeGrain(h)

	// (4a) edge stage: first Linear from the projections → rest of the
	// edge MLP → residual.
	p, q := projViews(u.view(pq))
	t.edgeT = edgeHeadTask[T]{g: g, e: ev, p: p, q: q, first: u.edgeFirst()}
	t.resT = residualTask[T]{src: ev}
	eOut = u.runEdge(batch*ne, &t.edgeT, &t.resT)

	// (4b)–(4c): degree-scaled receiver aggregation and halo swap. Every
	// aggregate row is written by aggRow before it is read, so the matrix
	// is not cleared; the halo staging buffer is zeroed because NoExchange
	// leaves it untouched (and must then contribute exactly nothing in 4d).
	agg := u.get(batch*nl, h, false)
	halo := u.get(batch*g.NumHalo(), h, true)
	before, during := splitNodes(g, overlap)
	eOutV := u.view(eOut)
	t.aggT = aggTask[T]{g: g, eOut: eOutV, agg: u.view(agg), rows: before}
	parallel.ForTask(batch*before.n, grain, &t.aggT)
	// The plan sends boundary rows only, and those are final here.
	src, dst := u.toWire(g, agg, halo)
	rc.Ex.Start(rc.Comm, comm.Forward, src, dst, batch)
	t.aggT.rows = during
	parallel.ForTask(batch*during.n, grain, &t.aggT)
	rc.Ex.Finish(rc.Comm)
	u.fromWire(halo)

	// (4d)–(4e) node stage: absorb halo copies (synchronous split: aggregate
	// the interior rows), concatenate → node MLP → residual → the next
	// layer's projection, over all rows in storage order.
	t.nodeInT = nodeInTask[T]{g: g, eOut: eOutV, agg: u.view(agg), halo: u.view(halo), x: xv,
		aggInterior: !overlap}
	t.projT = projectTask[T]{src: xv, next: next}
	if next.Valid() {
		pqOut = u.get(2*batch*nl, h, false)
		t.projT.p, t.projT.q = projViews(u.view(pqOut))
	}
	xOut = u.runNode(batch*nl, &t.nodeInT, &t.projT)
	return xOut, eOut, pqOut
}

// project returns x's projection through first (see projectTask),
// computed as a region of its own: for a caller with no stage producing x
// whose tail could — the standalone layer.
func project[T elem, M any](u nmpUser[T, M], t *projectTask[T], x M, first nn.SplitLinear[T]) M {
	xv := u.view(x)
	rows := len(xv.data) / xv.cols
	pq := u.get(2*rows, xv.cols, false)
	*t = projectTask[T]{x: xv, next: first}
	t.p, t.q = projViews(u.view(pq))
	parallel.ForTask(rows, edgeGrain(xv.cols), t)
	return pq
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
func (*direct64) fromWire(*tensor.Matrix)               {}
func (*direct64) toWire(_ *graph.Local, agg, halo *tensor.Matrix) (src, dst *tensor.Matrix) {
	return agg, halo
}

// NMPLayer is the trainable consistent NMP layer: the train adapter of the
// Eq. 4 schedule (its MLPs cache the stacked activations their backward
// needs) plus the backward schedule.
//
// With SetArena, every per-step matrix (projections, aggregates, halo
// staging, node inputs, and all backward intermediates) comes from the
// shared workspace arena: after the first step the layer allocates
// nothing.
type NMPLayer struct {
	EdgeMLP *nn.MLP // (x_dst ‖ x_src ‖ e) → H
	NodeMLP *nn.MLP // (a* ‖ x) → H

	// Overlap selects the phased split point (set from Config.Overlap by
	// NewModel; bitwise-identical to the synchronous one).
	Overlap bool

	direct64

	// the most recent forward's context, batch and inputs, for Backward:
	// the first Linear's parts read x and e back
	rc    *RankContext
	batch int
	x, e  *tensor.Matrix

	// bound tasks, reused across steps
	fwd       nmpTasks[float64]
	projT     projectTask[float64]
	nodeGradT nodeGradTask
	dHaloT    dHaloTask
	dEOutT    dEOutTask
	edgeGradT edgeGradTask
	nodeSumT  nodeSumTask
	dxT       addToTask
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

func (l *NMPLayer) runEdge(rows int, head nn.PreHead[float64], tail nn.RowMap[float64]) *tensor.Matrix {
	return l.EdgeMLP.ForwardPre(rows, head, tail)
}

func (l *NMPLayer) edgeFirst() nn.SplitLinear[float64] { return l.EdgeMLP.SplitFirst(edgeParts) }

func (l *NMPLayer) runNode(rows int, head, tail nn.RowMap[float64]) *tensor.Matrix {
	return l.NodeMLP.ForwardRows(rows, head, tail)
}

// Forward applies the layer to one sample: x (Nlocal×H) and e (Ne×H) are
// the hidden node and edge features; the returned pair are the updated
// features (arena-owned when an arena is set — valid until the owning
// model's next forward pass). Backward reads x and e again, so they must
// be left as they are until it has run. Alone, the layer has no stage before it to
// project x for its edge head, so it projects x in a region of its own:
// the one place a model's projection is computed twice, bitwise the same.
func (l *NMPLayer) Forward(rc *RankContext, x, e *tensor.Matrix) (xOut, eOut *tensor.Matrix) {
	pq := project(l, &l.projT, x, l.edgeFirst())
	xOut, eOut, _ = l.forward(rc, x, e, pq, 1, nn.SplitLinear[float64]{})
	return xOut, eOut
}

// forward applies the layer to batch stacked samples, x projected in pq,
// returning xOut projected through next as well (see forwardNMP), and
// remembers the context and batch for Backward.
func (l *NMPLayer) forward(rc *RankContext, x, e, pq *tensor.Matrix, batch int, next nn.SplitLinear[float64]) (xOut, eOut, pqOut *tensor.Matrix) {
	l.rc, l.batch, l.x, l.e = rc, batch, x, e
	return forwardNMP(l, &l.fwd, rc, x, e, pq, batch, l.Overlap, next)
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
	// The input-gradient chain's tail splits each panel of the
	// concatenated input gradient as it completes: the aggregate half is
	// materialized (the adjoint exchange scatter-adds into it), the x half
	// joins dxOut in dx.
	dAgg := l.arena.Get(batch*nl, h)
	dx = l.arena.Get(batch*nl, h)
	l.nodeGradT = nodeGradTask{dxOut: dxOut, dAgg: dAgg, dx: dx}
	l.NodeMLP.BackwardRows(dxOut, batch, nil, &l.nodeGradT)

	// (4d) synchronization backward: each halo row's gradient is its
	// owner's aggregate gradient; the local aggregate keeps dAgg.
	dHalo := l.arena.Get(batch*nh, h)
	l.dHaloT = dHaloTask{g: g, dAgg: dAgg, dHalo: dHalo}
	parallel.ForTask(batch*nh, grain, &l.dHaloT)

	// (4c) halo swap adjoint: halo gradients scatter-add into the
	// neighbors' local aggregate gradients — boundary rows only, so the
	// gather for interior-receiver edges can run while they fly. (4b)
	// aggregation backward: de_k = dAgg[dst_k] / d_k plus the direct deOut
	// path, every edge row written exactly once — the during-exchange span
	// as a region inside the window, the rest as the head of the edge-MLP
	// input-gradient chain, which reads them next.
	dEOut := l.arena.Get(batch*ne, h)
	during := edgesDuring(g, l.Overlap)
	rc.Ex.Start(rc.Comm, comm.Adjoint, dHalo, dAgg, batch)
	l.dEOutT = dEOutTask{g: g, dAgg: dAgg, deOut: deOut, dOut: dEOut, edges: during}
	parallel.ForTask(batch*during.n, grain, &l.dEOutT)
	rc.Ex.Finish(rc.Comm)
	l.dEOutT.edges, l.dEOutT.boundaryOnly = span{n: ne}, l.Overlap

	// (4a) edge update backward: the edge MLP back to its first Linear's
	// pre-activation gradient dPre, and in the same region that Linear's
	// edge part — de = dEOut (the residual) + dPre·W_2ᵀ in the chain's
	// tail, dW_2 += eᵀ·dPre and the bias gradient.
	de = l.arena.Get(batch*ne, h)
	l.edgeGradT = edgeGradTask{dEOut: dEOut, de: de}
	dPre, _ := l.EdgeMLP.BackwardPre(dEOut, batch, l.e, edgePart, &l.dEOutT, &l.edgeGradT)
	// The node parts were multiplied once per node, P = x·W_0 and Q =
	// x·W_1, so their gradients are dPre summed per node: S_r over each
	// node's receiver span, S_s over its sender span (the head). One region
	// over the nodes: dx += (S_r ‖ S_s)·(W_0ᵀ; W_1ᵀ) (the tail), dW_0 +=
	// xᵀ·S_r and dW_1 += xᵀ·S_s.
	l.nodeSumT = nodeSumTask{g: g, dPre: dPre}
	l.dxT = addToTask{dst: dx}
	l.EdgeMLP.BackwardParts(l.x, batch, recvPart, edgePart, &l.nodeSumT, &l.dxT)
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

// nodeGradTask is the tail of the node-MLP input-gradient chain: a panel of
// the (a* ‖ x) input gradient splits into the aggregate gradient (copied
// out: the adjoint exchange accumulates into it) and the x half, which
// joins the residual's dxOut in dx — dx = dxOut, then += the x half.
type nodeGradTask struct{ dxOut, dAgg, dx *tensor.Matrix }

func (t *nodeGradTask) Rows(p []float64, r0, r1 int) {
	h := t.dx.Cols
	for r := r0; r < r1; r++ {
		d := p[(r-r0)*2*h : (r-r0+1)*2*h]
		copy(t.dAgg.Row(r), d[:h])
		dst := t.dx.Row(r)
		copy(dst, t.dxOut.Row(r))
		tensor.AddTo(dst, d[h:])
	}
}

// edgeGradTask is the tail of the edge MLP's backward region: de = dEOut
// (the residual), then += the panel of e's gradient, dPre·W_2ᵀ.
type edgeGradTask struct{ dEOut, de *tensor.Matrix }

func (t *edgeGradTask) Rows(p []float64, r0, r1 int) {
	c := t.de.Cols
	dst := t.de.Data[r0*c : r1*c]
	copy(dst, t.dEOut.Data[r0*c:r1*c])
	tensor.AddTo(dst, p)
}

// addToTask is the tail of the node parts' backward region: dst's rows +=
// the panel.
type addToTask struct{ dst *tensor.Matrix }

func (t *addToTask) Rows(p []float64, r0, r1 int) {
	c := t.dst.Cols
	tensor.AddTo(t.dst.Data[r0*c:r1*c], p)
}

// dEOutTask is the aggregation backward (4b adjoint) over a span of every
// sample block's edges: de_k = dAgg[dst_k] / d_k, a pure gather, then the
// upstream deOut gradient (it also flows directly into eOut) folded in —
// two separately rounded steps per element. It runs as a region over the
// edges gathered inside the adjoint exchange window, and as the head of
// the edge-MLP input-gradient chain over the rest: there the span is every
// edge of the panel, and boundaryOnly (the phased split) leaves out the
// interior-receiver edges the window already wrote.
type dEOutTask struct {
	g                 *graph.Local
	dAgg, deOut, dOut *tensor.Matrix
	edges             span
	boundaryOnly      bool
}

func (t *dEOutTask) Run(lo, hi int) { runBlocks(t, t.edges.n, lo, hi) }

// Rows implements nn.RowMap: the panel is rows [r0, r1) of dOut itself.
func (t *dEOutTask) Rows(_ []float64, r0, r1 int) { runBlocks(t, t.edges.n, r0, r1) }

func (t *dEOutTask) block(b, lo, hi int) {
	g := t.g
	xo, eo := b*g.NumLocal(), b*g.NumEdges()
	for q := lo; q < hi; q++ {
		k := t.edges.at(q)
		recv := g.Edges[k][1]
		if t.boundaryOnly && g.NodeDegree[recv] <= 1 {
			continue
		}
		src := t.dAgg.Row(xo + recv)
		dst := t.dOut.Row(eo + k)
		inv := g.InvEdgeDegree[k]
		for j, v := range src {
			dst[j] = inv * v
		}
		tensor.AddTo(dst, t.deOut.Row(eo+k))
	}
}

// nodeSumTask is the head of the node parts' backward region: for each
// node row i of the panel (stacked by sample) it writes (S_r[i] ‖ S_s[i]),
// the gradients of P_i and Q_i: dPre summed over i's receiver span (the
// (dst,src)-sorted edges directly) and over its sender span (through the
// sender-grouped permutation), each from +0 in ascending order within the
// row's own sample block. A row is written by whoever owns its panel, so no
// two workers touch one, and every sum is that of a serial receiver sweep
// or a serial sender sweep over the sample.
type nodeSumTask struct {
	g    *graph.Local
	dPre *tensor.Matrix // (batch·N_edges)×h
}

func (t *nodeSumTask) Rows(p []float64, r0, r1 int) {
	g, h := t.g, t.dPre.Cols
	src := t.dPre.Data
	for lo := r0; lo < r1; {
		b, q, m := splitBlock(g.NumLocal(), lo, r1)
		eo := b * g.NumEdges()
		for i := q; i < q+m; i++ {
			row := p[(lo+i-q-r0)*2*h : (lo+i-q-r0+1)*2*h]
			clear(row)
			sr, ss := row[:h], row[h:]
			k0, k1 := g.RecvStart[i], g.RecvStart[i+1]
			if !tensor.SpanAcc(sr, src, h, eo+k0, nil, k1-k0, nil) {
				for k := k0; k < k1; k++ {
					for j, v := range t.dPre.Row(eo + k) {
						sr[j] += v
					}
				}
			}
			p0, p1 := g.SendStart[i], g.SendStart[i+1]
			if !tensor.SpanAcc(ss, src, h, eo, g.SendPerm[p0:p1], p1-p0, nil) {
				for s := p0; s < p1; s++ {
					for j, v := range t.dPre.Row(eo + g.SendPerm[s]) {
						ss[j] += v
					}
				}
			}
		}
		lo += m
	}
}
