package graph

import (
	"math"
	"strings"
	"testing"

	"meshgnn/internal/partition"
)

func TestValidatePassesOnBuiltGraphs(t *testing.T) {
	configs := []struct {
		per   [3]bool
		r     int
		strat partition.Strategy
	}{
		{[3]bool{}, 1, partition.Slabs},
		{[3]bool{}, 4, partition.Blocks},
		{[3]bool{true, true, true}, 8, partition.Blocks},
		{[3]bool{true, false, false}, 2, partition.Slabs},
	}
	for _, cfg := range configs {
		b := box(t, 4, 4, 2, 2, cfg.per)
		part, err := partition.NewCartesian(b, cfg.r, cfg.strat)
		if err != nil {
			t.Fatal(err)
		}
		locals, err := BuildAll(b, part)
		if err != nil {
			t.Fatal(err)
		}
		if err := ValidateAll(locals); err != nil {
			t.Fatalf("config %+v: %v", cfg, err)
		}
	}
}

func TestValidatePassesOnRCB(t *testing.T) {
	b := box(t, 5, 4, 3, 1, [3]bool{false, true, false})
	part, err := partition.NewRCB(b, 7)
	if err != nil {
		t.Fatal(err)
	}
	locals, err := BuildAll(b, part)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateAll(locals); err != nil {
		t.Fatal(err)
	}
}

// corrupt builds a valid 2-rank decomposition, applies f to rank 0, and
// expects validation to fail with a message containing want.
func corrupt(t *testing.T, want string, f func(l *Local)) {
	t.Helper()
	b := box(t, 2, 2, 2, 1, [3]bool{})
	part, err := partition.NewCartesian(b, 2, partition.Slabs)
	if err != nil {
		t.Fatal(err)
	}
	locals, err := BuildAll(b, part)
	if err != nil {
		t.Fatal(err)
	}
	f(locals[0])
	err = ValidateAll(locals)
	if err == nil {
		t.Fatalf("corruption %q not detected", want)
	}
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("corruption %q reported as %v", want, err)
	}
}

func TestValidateDetectsUnsortedIDs(t *testing.T) {
	corrupt(t, "increasing", func(l *Local) {
		l.GlobalIDs[0], l.GlobalIDs[1] = l.GlobalIDs[1], l.GlobalIDs[0]
	})
}

func TestValidateDetectsSelfLoop(t *testing.T) {
	corrupt(t, "self-loop", func(l *Local) {
		l.Edges[0][0] = l.Edges[0][1]
	})
}

func TestValidateDetectsBadEdgeDegree(t *testing.T) {
	corrupt(t, "degree", func(l *Local) {
		l.EdgeDegree[3] = 0
	})
}

func TestValidateDetectsBadNodeDegree(t *testing.T) {
	corrupt(t, "owned by", func(l *Local) {
		for i, d := range l.NodeDegree {
			if d == 2 {
				l.NodeDegree[i] = 3
				return
			}
		}
		t.Fatal("no shared node found")
	})
}

func TestValidateDetectsAsymmetricPlan(t *testing.T) {
	corrupt(t, "gid", func(l *Local) {
		// Swap two send slots so the global-ID order no longer matches
		// the neighbor's halo expectations.
		s := l.Plan.SendIdx[0]
		if len(s) < 2 {
			t.Fatal("need at least 2 send slots")
		}
		s[0], s[1] = s[1], s[0]
	})
}

func TestValidateDetectsMissingReverseEdge(t *testing.T) {
	corrupt(t, "reverse", func(l *Local) {
		l.Edges = l.Edges[:len(l.Edges)-1]
		l.EdgeDegree = l.EdgeDegree[:len(l.EdgeDegree)-1]
		l.InvEdgeDegree = l.InvEdgeDegree[:len(l.InvEdgeDegree)-1]
	})
}

func TestValidateDetectsEdgeWeightGap(t *testing.T) {
	corrupt(t, "weight", func(l *Local) {
		// Inflate one shared edge's degree so its total weight < 1.
		for k, d := range l.EdgeDegree {
			if d == 2 {
				l.EdgeDegree[k], l.InvEdgeDegree[k] = 4, 0.25
				return
			}
		}
		t.Fatal("no shared edge found")
	})
}

// TestValidateDetectsStaleInverseEdgeDegree: the inverse degrees the
// aggregation reads must be exactly 1/EdgeDegree, in length and bits.
func TestValidateDetectsStaleInverseEdgeDegree(t *testing.T) {
	corrupt(t, "inverse degree", func(l *Local) {
		l.InvEdgeDegree[3] = 1 / (l.EdgeDegree[3] + 1)
	})
	corrupt(t, "inverse edge degrees", func(l *Local) {
		l.InvEdgeDegree = l.InvEdgeDegree[1:]
	})
	corrupt(t, "inverse degree", func(l *Local) {
		l.InvEdgeDegree[0] = math.Nextafter(l.InvEdgeDegree[0], 0)
	})
}

// TestBoundaryDecomposition pins the interior/boundary split the
// overlapped NMP pipeline consumes: the boundary prefix of NodeOrder is
// exactly the shared rows, interior rows own no halo copies and are never
// sent, and EdgeOrder is the receiver-grouped permutation with the
// boundary in-degree as its prefix length.
func TestBoundaryDecomposition(t *testing.T) {
	b := box(t, 4, 4, 2, 2, [3]bool{true, false, false})
	part, err := partition.NewCartesian(b, 4, partition.Blocks)
	if err != nil {
		t.Fatal(err)
	}
	locals, err := BuildAll(b, part)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range locals {
		boundary := make(map[int]bool, l.NumBoundary)
		for _, i := range l.NodeOrder[:l.NumBoundary] {
			boundary[i] = true
		}
		if len(boundary) != l.NumBoundary {
			t.Fatalf("rank %d: duplicate boundary rows", l.Rank)
		}
		for i, d := range l.NodeDegree {
			if (d > 1) != boundary[i] {
				t.Errorf("rank %d node %d: degree %v, boundary=%v", l.Rank, i, d, boundary[i])
			}
		}
		// Every row the plan sends must be in the boundary prefix.
		for k := range l.Plan.Neighbors {
			for _, i := range l.Plan.SendIdx[k] {
				if !boundary[i] {
					t.Errorf("rank %d: sent row %d not in boundary prefix", l.Rank, i)
				}
			}
		}
		// Every halo owner must be in the boundary prefix.
		for _, owner := range l.HaloOwner {
			if !boundary[owner] {
				t.Errorf("rank %d: halo owner %d not in boundary prefix", l.Rank, owner)
			}
		}
		// Boundary edges are exactly those received by boundary rows.
		nb := 0
		for k, e := range l.Edges {
			if boundary[e[1]] {
				nb++
			} else {
				_ = k
			}
		}
		if nb != l.NumBoundaryEdges {
			t.Errorf("rank %d: %d boundary-receiver edges, NumBoundaryEdges=%d", l.Rank, nb, l.NumBoundaryEdges)
		}
		for pos, k := range l.EdgeOrder {
			if want := pos < l.NumBoundaryEdges; boundary[l.Edges[k][1]] != want {
				t.Errorf("rank %d: EdgeOrder[%d]=%d receiver on wrong side of split", l.Rank, pos, k)
			}
		}
	}
	// A single-rank graph has an empty boundary.
	single, err := BuildSingle(b)
	if err != nil {
		t.Fatal(err)
	}
	if single.NumBoundary != 0 || single.NumBoundaryEdges != 0 {
		t.Errorf("R=1 boundary: %d nodes, %d edges", single.NumBoundary, single.NumBoundaryEdges)
	}
	if len(single.NodeOrder) != single.NumLocal() || len(single.EdgeOrder) != single.NumEdges() {
		t.Errorf("R=1 permutation sizes: %d/%d", len(single.NodeOrder), len(single.EdgeOrder))
	}
}

// TestValidateCatchesDecompositionCorruption checks the validator rejects
// a graph whose boundary-first permutation was tampered with.
func TestValidateCatchesDecompositionCorruption(t *testing.T) {
	b := box(t, 4, 2, 2, 1, [3]bool{})
	part, err := partition.NewCartesian(b, 2, partition.Slabs)
	if err != nil {
		t.Fatal(err)
	}
	locals, err := BuildAll(b, part)
	if err != nil {
		t.Fatal(err)
	}
	l := locals[0]
	if l.NumBoundary == 0 || l.NumBoundary == l.NumLocal() {
		t.Fatal("test mesh has no interior/boundary mix")
	}
	corrupt := func(name string, mutate, restore func()) {
		mutate()
		if err := l.Validate(); err == nil {
			t.Errorf("%s: corruption not caught", name)
		}
		restore()
		if err := l.Validate(); err != nil {
			t.Fatalf("%s: restore failed: %v", name, err)
		}
	}
	// Swap a boundary row with an interior row.
	bi, ii := 0, l.NumBoundary
	corrupt("node split",
		func() { l.NodeOrder[bi], l.NodeOrder[ii] = l.NodeOrder[ii], l.NodeOrder[bi] },
		func() { l.NodeOrder[bi], l.NodeOrder[ii] = l.NodeOrder[ii], l.NodeOrder[bi] })
	// Shrink the boundary edge count.
	corrupt("edge split",
		func() { l.NumBoundaryEdges-- },
		func() { l.NumBoundaryEdges++ })
	// Reorder two edges of the receiver-grouped permutation.
	if l.NumBoundaryEdges >= 2 {
		corrupt("edge order",
			func() { l.EdgeOrder[0], l.EdgeOrder[1] = l.EdgeOrder[1], l.EdgeOrder[0] },
			func() { l.EdgeOrder[0], l.EdgeOrder[1] = l.EdgeOrder[1], l.EdgeOrder[0] })
	}
}
