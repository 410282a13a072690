package experiments

import (
	"fmt"
	"io"
)

// RenderFig6Left writes the Fig. 6 (left) rows as a markdown table.
func RenderFig6Left(w io.Writer, rows []Fig6LeftRow) {
	fmt.Fprintln(w, "| R | standard NMP loss | consistent NMP loss | R=1 target | standard deviation |")
	fmt.Fprintln(w, "|---|---|---|---|---|")
	for _, r := range rows {
		fmt.Fprintf(w, "| %d | %.10f | %.10f | %.10f | %.3e |\n",
			r.R, r.Standard, r.Consistent, r.TargetR1, abs(r.Standard-r.TargetR1))
	}
}

// RenderFig6Right writes sampled points of the three training curves.
func RenderFig6Right(w io.Writer, res *Fig6RightResult, samples int) {
	n := len(res.TargetR1)
	if samples < 2 {
		samples = 2
	}
	fmt.Fprintf(w, "| iteration | target (R=1) | standard MP (R=%d) | consistent MP (R=%d) |\n", res.R, res.R)
	fmt.Fprintln(w, "|---|---|---|---|")
	for s := 0; s < samples; s++ {
		it := s * (n - 1) / (samples - 1)
		fmt.Fprintf(w, "| %d | %.8f | %.8f | %.8f |\n",
			it+1, res.TargetR1[it], res.Standard[it], res.Consistent[it])
	}
}

// RenderTable1 writes the model-settings table.
func RenderTable1(w io.Writer, rows []Table1Row) {
	fmt.Fprintln(w, "| GNN | hidden dim (N_H) | NMP layers (M) | MLP hidden layers | trainable parameters |")
	fmt.Fprintln(w, "|---|---|---|---|---|")
	for _, r := range rows {
		fmt.Fprintf(w, "| %s | %d | %d | %d | %d |\n",
			r.Name, r.HiddenDim, r.MPLayers, r.MLPHiddenLayers, r.Parameters)
	}
}

// RenderTable2 writes the partition statistics table in the paper's
// (min, max, avg) format with counts in thousands.
func RenderTable2(w io.Writer, rows []Table2Row) {
	fmt.Fprintln(w, "| ranks | graph nodes 10³ (min,max,avg) | halo nodes 10³ (min,max,avg) | neighbors (min,max,avg) | total graph nodes |")
	fmt.Fprintln(w, "|---|---|---|---|---|")
	for _, r := range rows {
		fmt.Fprintf(w, "| %d | %.0f, %.0f, %.0f | %.1f, %.1f, %.1f | %d, %d, %.0f | %.3g |\n",
			r.Ranks,
			float64(r.NodesMin)/1e3, float64(r.NodesMax)/1e3, r.NodesAvg/1e3,
			float64(r.HaloMin)/1e3, float64(r.HaloMax)/1e3, r.HaloAvg/1e3,
			r.NeighborsMin, r.NeighborsMax, r.NeighborsAvg,
			float64(r.TotalNodes))
	}
}

// RenderMeasured writes the measured tier table, including the per-phase
// halo time and its exposed (not hidden behind compute) subset.
func RenderMeasured(w io.Writer, pts []MeasuredPoint) {
	fmt.Fprintln(w, "| model | mode | overlap | ranks | nodes/rank | s/iter | throughput (nodes/s) | relative | halo s/iter | exposed s/iter | msgs/iter | floats/iter |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|---|---|---|---|---|")
	for _, p := range pts {
		overlap := "off"
		if p.Overlap {
			overlap = "on"
		}
		fmt.Fprintf(w, "| %s | %s | %s | %d | %d | %.4f | %.3g | %.3f | %.5f | %.5f | %d | %d |\n",
			p.Model, p.Mode, overlap, p.Ranks, p.NodesPerRank, p.SecPerIter, p.Throughput,
			p.Relative, p.HaloSecPerIter, p.ExposedPerIter, p.Messages, p.Floats)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
