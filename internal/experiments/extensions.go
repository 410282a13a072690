package experiments

import (
	"fmt"
	"io"

	"meshgnn/internal/partition"
)

// This file holds the reduced-graph ablation, an experiment beyond the
// paper's figures: how much the local coincident-node collapse saves.

// ReducedGraphRow quantifies the local-coincident-collapse ablation.
type ReducedGraphRow struct {
	Ranks           int
	CollapsedNodes  int64 // total local nodes with collapse
	RawNodes        int64 // total node instances without collapse
	NodeDuplication float64
	EdgeDuplication float64
}

// ReducedGraphAblation compares collapsed vs uncollapsed representations
// across rank counts for the weak-scaling mesh (paper Fig. 3(c): the
// reduced graph removes duplicate local nodes and the local
// synchronization step).
func ReducedGraphAblation(p, elemsPerRank int, rs []int) ([]ReducedGraphRow, error) {
	rows := make([]ReducedGraphRow, 0, len(rs))
	for _, r := range rs {
		box, cart, err := weakScalingMesh(p, elemsPerRank, r)
		if err != nil {
			return nil, err
		}
		un := cart.Uncollapsed()
		sum := partition.Summarize(box, cart.CartesianStats())
		var raw int64
		for _, n := range un.NodesPerRank {
			raw += n
		}
		rows = append(rows, ReducedGraphRow{
			Ranks:           r,
			CollapsedNodes:  sum.TotalLocalNodes,
			RawNodes:        raw,
			NodeDuplication: un.NodeDuplication,
			EdgeDuplication: un.EdgeDuplication,
		})
	}
	return rows, nil
}

// RenderReducedGraph writes the collapse-ablation table.
func RenderReducedGraph(w io.Writer, rows []ReducedGraphRow) {
	fmt.Fprintln(w, "| ranks | collapsed local nodes | uncollapsed node instances | node duplication | edge duplication |")
	fmt.Fprintln(w, "|---|---|---|---|---|")
	for _, r := range rows {
		fmt.Fprintf(w, "| %d | %.4g | %.4g | %.3fx | %.3fx |\n",
			r.Ranks, float64(r.CollapsedNodes), float64(r.RawNodes),
			r.NodeDuplication, r.EdgeDuplication)
	}
}
