package gnn

import (
	"fmt"

	"meshgnn/internal/comm"
	"meshgnn/internal/graph"
	"meshgnn/internal/mesh"
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

// TransportKind reports which fabric (in-process channels, sockets, or
// socket-connected OS processes) carries this rank's traffic. The GNN
// never branches on it — halo exchanges and collectives behave
// identically on every transport — but runners surface it in banners and
// reports.
func (rc *RankContext) TransportKind() comm.TransportKind {
	return rc.Comm.TransportKind()
}
