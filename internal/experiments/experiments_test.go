package experiments

import (
	"math"
	"strings"
	"testing"

	"meshgnn/internal/comm"
	"meshgnn/internal/gnn"
)

// fastConfig shrinks the model so experiment smoke tests stay quick.
func fastConfig() gnn.Config {
	cfg := gnn.SmallConfig()
	cfg.MessagePassingLayers = 2
	cfg.MLPHiddenLayers = 1
	return cfg
}

func TestFig6LeftShape(t *testing.T) {
	rows, err := Fig6Left(4, 1, []int{2, 4, 8}, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		// Consistent loss must coincide with the R=1 target.
		if rel := math.Abs(r.Consistent-r.TargetR1) / (1 + r.TargetR1); rel > 1e-12 {
			t.Fatalf("R=%d: consistent loss deviates rel %g", r.R, rel)
		}
		// Standard loss must deviate for every partitioned run. (The
		// roughly-linear growth of the deviation with R that the paper
		// plots emerges only at larger mesh sizes; the full-size run is
		// exercised by cmd/consistency and the Fig6Left bench.)
		if dev := math.Abs(r.Standard - r.TargetR1); dev <= 1e-12 {
			t.Fatalf("R=%d: standard loss unexpectedly consistent", r.R)
		}
	}
}

func TestFig6RightCurves(t *testing.T) {
	res, err := Fig6Right(4, 1, 4, 6, fastConfig(), 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TargetR1) != 6 || len(res.Standard) != 6 || len(res.Consistent) != 6 {
		t.Fatal("curve lengths wrong")
	}
	for it := range res.TargetR1 {
		if rel := math.Abs(res.Consistent[it]-res.TargetR1[it]) / (1 + res.TargetR1[it]); rel > 1e-6 {
			t.Fatalf("iter %d: consistent training deviates rel %g", it, rel)
		}
	}
	// Loss decreases.
	if res.TargetR1[5] >= res.TargetR1[0] {
		t.Fatalf("training did not reduce loss: %v -> %v", res.TargetR1[0], res.TargetR1[5])
	}
}

func TestTable1MatchesPaper(t *testing.T) {
	rows := Table1()
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	if rows[0].Parameters != 3979 || rows[1].Parameters != 91459 {
		t.Fatalf("parameter counts %d/%d, want 3979/91459", rows[0].Parameters, rows[1].Parameters)
	}
	if rows[0].HiddenDim != 8 || rows[1].HiddenDim != 32 {
		t.Fatal("hidden dims wrong")
	}
}

// Table II at the paper's production scale: 2048 ranks, p=5, 16³ elements
// per rank, ~1.1e9 total nodes — entirely via the analytic path.
func TestTable2PaperScale(t *testing.T) {
	rows, err := Table2(5, 16, []int{8, 64, 512, 2048})
	if err != nil {
		t.Fatal(err)
	}
	// R=8 row must match the paper exactly (518k, 12.8k, 2).
	r8 := rows[0]
	if r8.NodesAvg != 518400 || r8.HaloAvg != 12800 || r8.NeighborsAvg != 2 {
		t.Fatalf("R=8 row: %+v", r8)
	}
	// Total graph nodes must reach ~1.07e9 at 2048 ranks (paper: 1.105e9).
	r2048 := rows[3]
	if r2048.TotalNodes < 1e9 || r2048.TotalNodes > 1.2e9 {
		t.Fatalf("R=2048 total nodes %d, want ~1.1e9", r2048.TotalNodes)
	}
	// Loading stays balanced and halos bounded for all rows.
	for _, r := range rows {
		if r.NodesMin != r.NodesMax {
			t.Fatalf("R=%d: unbalanced loading %d..%d", r.Ranks, r.NodesMin, r.NodesMax)
		}
		if r.HaloAvg <= 0 || r.HaloAvg > 80e3 {
			t.Fatalf("R=%d: halo average %v out of range", r.Ranks, r.HaloAvg)
		}
		if r.NeighborsMax > 26 {
			t.Fatalf("R=%d: %d neighbors", r.Ranks, r.NeighborsMax)
		}
	}
}

// TestFig7MeasuredSmoke holds the paper's A2A / N-A2A traffic claim to
// what the fabric counted (SmallConfig, M = 4, p = 1, 2³ elements per
// rank). Per iteration, rank 0's halo exchanges (M forward, M backward)
// add 2·M·(R−1) messages to the no-exchange baseline under A2A, a buffer
// to every other rank, and 2·M·neighbours under N-A2A. A slab has at most
// two neighbours, so A2A grows linearly with R while N-A2A stays flat.
func TestFig7MeasuredSmoke(t *testing.T) {
	cfg := gnn.SmallConfig()
	rs := []int{2, 4, 8}
	pts, err := Fig7Measured(1, 2, rs, cfg,
		[]comm.ExchangeMode{comm.AllToAllMode, comm.NeighborAllToAll}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// 3 rank counts × (none + 2 modes).
	if len(pts) != 3*len(rs) {
		t.Fatalf("%d points", len(pts))
	}
	for _, p := range pts {
		if p.SecPerIter <= 0 || p.Throughput <= 0 {
			t.Fatalf("non-positive timing: %+v", p)
		}
		if p.Mode == comm.NoExchange && p.Relative != 1 {
			t.Fatalf("baseline relative %v", p.Relative)
		}
	}
	m := int64(cfg.MessagePassingLayers)
	for i, r := range rs {
		none, a2a, na2a := pts[3*i], pts[3*i+1], pts[3*i+2]
		if none.Ranks != r || none.Mode != comm.NoExchange || a2a.Mode != comm.AllToAllMode ||
			na2a.Mode != comm.NeighborAllToAll {
			t.Fatalf("R=%d: rows out of order: %v %v %v", r, none.Mode, a2a.Mode, na2a.Mode)
		}
		_, locals, err := measuredMesh(1, 2, r)
		if err != nil {
			t.Fatal(err)
		}
		nbrs := int64(len(locals[0].Plan.Neighbors))
		if nbrs < 1 || nbrs > 2 {
			t.Fatalf("R=%d: rank 0 has %d neighbours, want 1 or 2", r, nbrs)
		}
		if got, want := a2a.Messages-none.Messages, 2*m*int64(r-1); got != want {
			t.Errorf("R=%d: A2A adds %d msgs/iter, want 2·M·(R−1) = %d", r, got, want)
		}
		if got, want := na2a.Messages-none.Messages, 2*m*nbrs; got != want {
			t.Errorf("R=%d: N-A2A adds %d msgs/iter, want 2·M·neighbours = %d", r, got, want)
		}
	}
}

// TestMeasuredRejectsZeroIters: the per-iteration columns divide by the
// timed iterations, so both measured tiers refuse a run with none.
func TestMeasuredRejectsZeroIters(t *testing.T) {
	for _, iters := range []int{0, -1} {
		if _, err := Fig7Measured(1, 2, []int{1}, fastConfig(), nil, iters); err == nil {
			t.Errorf("Fig7Measured accepted iters=%d", iters)
		}
		if _, err := MeasuredProcs(1, 2, 1, fastConfig(), comm.NoExchange, iters); err == nil {
			t.Errorf("MeasuredProcs accepted iters=%d", iters)
		}
	}
}

func TestRenderersProduceTables(t *testing.T) {
	var sb strings.Builder
	rows, err := Fig6Left(2, 1, []int{2}, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	RenderFig6Left(&sb, rows)
	RenderTable1(&sb, Table1())
	t2, err := Table2(2, 2, []int{8})
	if err != nil {
		t.Fatal(err)
	}
	RenderTable2(&sb, t2)
	pts, err := Fig7Measured(1, 2, []int{2}, fastConfig(), []comm.ExchangeMode{comm.NeighborAllToAll}, 1)
	if err != nil {
		t.Fatal(err)
	}
	RenderMeasured(&sb, pts)
	out := sb.String()
	for _, want := range []string{"| R |", "| GNN |", "| ranks |", "| small | N-A2A | off | 2 |"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in rendered output", want)
		}
	}
}

// TestRankGrid pins the weak-scaling process grids: r×1×1 slabs up to 8
// ranks, the most cubic blocks beyond (partition.Auto on a cube).
func TestRankGrid(t *testing.T) {
	cases := []struct {
		r    int
		grid [3]int
	}{
		{1, [3]int{1, 1, 1}},
		{8, [3]int{8, 1, 1}},
		{16, [3]int{2, 2, 4}},
		{64, [3]int{4, 4, 4}},
		{512, [3]int{8, 8, 8}},
		{2048, [3]int{8, 16, 16}},
	}
	for _, c := range cases {
		rx, ry, rz, err := rankGrid(c.r)
		if err != nil {
			t.Fatal(err)
		}
		if got := [3]int{rx, ry, rz}; got != c.grid {
			t.Fatalf("rankGrid(%d) = %v, want %v", c.r, got, c.grid)
		}
	}
	// The partitioner splits every weak-scaling mesh on the grid it was
	// sized for, at any rank count (weakScalingMesh checks it).
	for r := 1; r <= 64; r++ {
		if _, _, err := weakScalingMesh(1, 2, r); err != nil {
			t.Fatalf("R=%d: %v", r, err)
		}
	}
}
