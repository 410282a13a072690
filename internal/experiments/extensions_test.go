package experiments

import (
	"strings"
	"testing"

	"meshgnn/internal/comm"
	"meshgnn/internal/gnn"
	"meshgnn/internal/perfmodel"
)

func TestStrongScalingShape(t *testing.T) {
	pts, err := StrongScaling(perfmodel.Frontier(), 5, 32, []int{8, 64, 512},
		gnn.LargeConfig(), DefaultModes())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 9 {
		t.Fatalf("%d points", len(pts))
	}
	get := func(mode comm.ExchangeMode, r int) StrongScalingPoint {
		for _, p := range pts {
			if p.Mode == mode && p.Ranks == r {
				return p
			}
		}
		t.Fatalf("missing %v/%d", mode, r)
		return StrongScalingPoint{}
	}
	// Iteration time must shrink with R for the baseline.
	if get(comm.NoExchange, 512).IterTime >= get(comm.NoExchange, 8).IterTime {
		t.Fatal("strong scaling did not reduce iteration time")
	}
	// Baseline speedup at R0 is 1 by definition.
	if s := get(comm.NoExchange, 8).Speedup; s != 1 {
		t.Fatalf("base speedup %v", s)
	}
	// Strong-scaling efficiency degrades faster for A2A than N-A2A.
	if get(comm.AllToAllMode, 512).Efficiency >= get(comm.NeighborAllToAll, 512).Efficiency {
		t.Fatal("A2A should lose efficiency faster than N-A2A under strong scaling")
	}
}

func TestInferenceThroughputShape(t *testing.T) {
	pts, err := InferenceThroughput(perfmodel.Frontier(), 5, Loading512k(),
		[]int{8, 512, 2048}, gnn.LargeConfig(), DefaultModes())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if p.Throughput <= 0 {
			t.Fatalf("non-positive throughput: %+v", p)
		}
		if p.Mode == comm.NoExchange && p.Relative != 1 {
			t.Fatalf("baseline relative %v", p.Relative)
		}
		if p.Relative > 1.0001 {
			t.Fatalf("exchange mode faster than baseline: %+v", p)
		}
	}
	// A2A at 2048 ranks must be markedly slower than N-A2A.
	var a2a, na2a float64
	for _, p := range pts {
		if p.Ranks == 2048 && p.Mode == comm.AllToAllMode {
			a2a = p.Relative
		}
		if p.Ranks == 2048 && p.Mode == comm.NeighborAllToAll {
			na2a = p.Relative
		}
	}
	if a2a >= na2a {
		t.Fatalf("A2A relative %v should trail N-A2A %v", a2a, na2a)
	}
}

func TestReducedGraphAblation(t *testing.T) {
	rows, err := ReducedGraphAblation(5, 4, []int{8, 64})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.RawNodes <= r.CollapsedNodes {
			t.Fatalf("R=%d: raw %d not larger than collapsed %d", r.Ranks, r.RawNodes, r.CollapsedNodes)
		}
		// At p=5 the duplication approaches (p+1)^3/p^3 = 1.728 for
		// large meshes; it must exceed 1.3 even at this size.
		if r.NodeDuplication < 1.3 || r.NodeDuplication > 1.8 {
			t.Fatalf("R=%d: node duplication %v out of range", r.Ranks, r.NodeDuplication)
		}
		if r.EdgeDuplication < 1.0 || r.EdgeDuplication > 1.5 {
			t.Fatalf("R=%d: edge duplication %v out of range", r.Ranks, r.EdgeDuplication)
		}
	}
}

func TestExtensionRenderers(t *testing.T) {
	var sb strings.Builder
	ss, err := StrongScaling(perfmodel.Frontier(), 3, 16, []int{8, 64}, gnn.SmallConfig(),
		[]comm.ExchangeMode{comm.NoExchange})
	if err != nil {
		t.Fatal(err)
	}
	RenderStrongScaling(&sb, ss)
	inf, err := InferenceThroughput(perfmodel.Frontier(), 5, Loading256k(), []int{8},
		gnn.SmallConfig(), DefaultModes())
	if err != nil {
		t.Fatal(err)
	}
	RenderInference(&sb, inf)
	rg, err := ReducedGraphAblation(3, 2, []int{8})
	if err != nil {
		t.Fatal(err)
	}
	RenderReducedGraph(&sb, rg)
	for _, want := range []string{"speedup", "inference throughput", "duplication"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("missing %q", want)
		}
	}
}
