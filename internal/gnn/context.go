package gnn

import (
	"fmt"

	"meshgnn/internal/comm"
	"meshgnn/internal/graph"
	"meshgnn/internal/mesh"
	"meshgnn/internal/parallel"
	"meshgnn/internal/tensor"
)

// RankContext bundles everything one rank needs to run the distributed
// GNN: its communicator, its sub-graph, the halo exchanger, and the static
// (geometry-derived) edge attributes.
type RankContext struct {
	Comm  *comm.Comm
	Graph *graph.Local
	Ex    *comm.Exchanger
	// StaticEdge holds [dx, dy, dz, |d|] per directed edge.
	StaticEdge *tensor.Matrix
	// Neff is the effective global node count Σ 1/d_i reduced over all
	// ranks (paper Eq. 6c); computed once at setup.
	Neff float64

	// eiTask is the reusable bound task for the edge-input assembly.
	eiTask edgeInputsTask
}

// NewRankContext wires a rank's context: it finalizes the halo plan
// (computing the global maximum send count the uniform-buffer A2A mode
// needs), builds the exchanger, precomputes static edge features, and
// reduces N_eff. It must be called collectively by all ranks.
func NewRankContext(c *comm.Comm, box *mesh.Box, l *graph.Local, mode comm.ExchangeMode) (*RankContext, error) {
	if l.Rank != c.Rank() {
		return nil, fmt.Errorf("gnn: graph rank %d handed to comm rank %d", l.Rank, c.Rank())
	}
	comm.FinalizePlan(c, l.Plan)
	ex, err := comm.NewExchanger(mode, l.Plan)
	if err != nil {
		return nil, err
	}
	var neff float64
	for _, d := range l.NodeDegree {
		neff += 1 / d
	}
	buf := []float64{neff}
	c.AllReduceSum(buf)
	return &RankContext{
		Comm:       c,
		Graph:      l,
		Ex:         ex,
		StaticEdge: l.StaticEdgeFeatures(box),
		Neff:       buf[0],
	}, nil
}

// edgeInputsTask assembles the 7-column edge attributes of a batch of
// snapshots, block b of the stacked output from sample b: the relative
// node features, then the static geometry columns every sample shares.
// Bound to the rank context and reused so the per-step assembly allocates
// nothing.
type edgeInputsTask struct {
	rc  *RankContext
	xs  []*tensor.Matrix
	out *tensor.Matrix
}

func (t *edgeInputsTask) Run(lo, hi int) { runBlocks(t, t.rc.Graph.NumEdges(), lo, hi) }

func (t *edgeInputsTask) block(b, lo, hi int) {
	g, x := t.rc.Graph, t.xs[b]
	eo := b * g.NumEdges()
	for k := lo; k < hi; k++ {
		e := g.Edges[k]
		row := t.out.Row(eo + k)
		xs, xd := x.Row(e[0]), x.Row(e[1])
		for j := 0; j < 3 && j < len(xs); j++ {
			row[j] = xd[j] - xs[j]
		}
		copy(row[3:], t.rc.StaticEdge.Row(k))
	}
}

// TransportKind reports which fabric (in-process channels, sockets, or
// socket-connected OS processes) carries this rank's traffic. The GNN
// never branches on it — halo exchanges and collectives behave
// identically on every transport — but runners surface it in banners and
// reports.
func (rc *RankContext) TransportKind() comm.TransportKind {
	return rc.Comm.TransportKind()
}

// EdgeInputs assembles the raw edge-attribute matrix for the given input
// node features under the configured mode. For EdgeFeatures7 the first
// three columns are the relative input node features x_dst - x_src (the
// paper's "relative node features"); the remaining four are the static
// geometry columns. EdgeFeatures4 returns the precomputed static matrix.
func (rc *RankContext) EdgeInputs(mode EdgeFeatureMode, x *tensor.Matrix) *tensor.Matrix {
	switch mode {
	case EdgeFeatures4:
		return rc.StaticEdge
	case EdgeFeatures7:
		return rc.edgeInputs7([]*tensor.Matrix{x}, nil)
	}
	panic(fmt.Sprintf("gnn: unsupported edge mode %d", mode))
}

// edgeInputs7 assembles the EdgeFeatures7 attributes of the snapshots xs
// (N_local rows each) into a (len(xs)·N_edges)×7 workspace drawn from a
// (nil allocates). The samples are read where they are, so a float32 user
// needs no float64 stack of them.
func (rc *RankContext) edgeInputs7(xs []*tensor.Matrix, a *tensor.Arena) *tensor.Matrix {
	// Inputs narrower than 3 columns leave part of the relative-feature
	// block untouched, which must read as zero; full-width inputs
	// overwrite every column, so the clear is skipped.
	batch, ne := len(xs), rc.Graph.NumEdges()
	var out *tensor.Matrix
	if xs[0].Cols >= 3 {
		out = a.Get(batch*ne, int(EdgeFeatures7))
	} else {
		out = a.GetZeroed(batch*ne, int(EdgeFeatures7))
	}
	rc.eiTask = edgeInputsTask{rc: rc, xs: xs, out: out}
	parallel.ForTask(batch*ne, 512, &rc.eiTask)
	return out
}
