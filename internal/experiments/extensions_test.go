package experiments

import (
	"strings"
	"testing"
)

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
	rg, err := ReducedGraphAblation(3, 2, []int{8})
	if err != nil {
		t.Fatal(err)
	}
	RenderReducedGraph(&sb, rg)
	if !strings.Contains(sb.String(), "duplication") {
		t.Fatal("missing \"duplication\"")
	}
}
