package mesh

import (
	"math"
	"testing"
	"testing/quick"
)

func mustBox(t *testing.T, ex, ey, ez, p int, per [3]bool) *Box {
	t.Helper()
	b, err := NewBox(ex, ey, ez, p, per)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestNewBoxValidation(t *testing.T) {
	if _, err := NewBox(0, 1, 1, 1, [3]bool{}); err == nil {
		t.Fatal("expected error for zero elements")
	}
	if _, err := NewBox(1, 1, 1, 0, [3]bool{}); err == nil {
		t.Fatal("expected error for order 0")
	}
	if _, err := NewBox(1, 2, 2, 1, [3]bool{true, false, false}); err == nil {
		t.Fatal("expected error for periodic single-element axis")
	}
}

func TestNodeCountsBounded(t *testing.T) {
	// Paper Fig. 3(a): 2x2x2 elements. At p=5 a bounded box has
	// (2*5+1)^3 = 1331 unique nodes.
	b := mustBox(t, 2, 2, 2, 5, [3]bool{})
	if b.NumNodes() != 1331 {
		t.Fatalf("NumNodes = %d, want 1331", b.NumNodes())
	}
	if b.NodesPerElement() != 216 {
		t.Fatalf("NodesPerElement = %d, want 216", b.NodesPerElement())
	}
	if b.NumElements() != 8 {
		t.Fatalf("NumElements = %d", b.NumElements())
	}
}

func TestNodeCountsPeriodic(t *testing.T) {
	// Fully periodic: lattice wraps, e*p unique per axis.
	b := mustBox(t, 4, 4, 4, 3, [3]bool{true, true, true})
	want := int64(12 * 12 * 12)
	if b.NumNodes() != want {
		t.Fatalf("NumNodes = %d, want %d", b.NumNodes(), want)
	}
}

func TestElementIDRoundTrip(t *testing.T) {
	b := mustBox(t, 3, 4, 5, 1, [3]bool{})
	for g := 0; g < 5; g++ {
		for f := 0; f < 4; f++ {
			for e := 0; e < 3; e++ {
				id := b.ElementID(e, f, g)
				e2, f2, g2 := b.ElementCoords(id)
				if e2 != e || f2 != f || g2 != g {
					t.Fatalf("round trip (%d,%d,%d) -> %d -> (%d,%d,%d)", e, f, g, id, e2, f2, g2)
				}
			}
		}
	}
}

func TestNodeLatticeRoundTrip(t *testing.T) {
	b := mustBox(t, 2, 3, 2, 2, [3]bool{false, true, false})
	for id := int64(0); id < b.NumNodes(); id++ {
		ix, iy, iz := b.NodeLattice(id)
		if got := b.nodeID(ix, iy, iz); got != id {
			t.Fatalf("lattice round trip %d -> (%d,%d,%d) -> %d", id, ix, iy, iz, got)
		}
	}
}

// Local coincident collapse: the shared face between two adjacent elements
// must produce identical global IDs from both elements.
func TestCoincidentNodesSharedFace(t *testing.T) {
	b := mustBox(t, 2, 1, 1, 3, [3]bool{})
	left := b.ElementNodeIDs(nil, 0, 0, 0)
	right := b.ElementNodeIDs(nil, 1, 0, 0)
	p := b.P
	// Right face of element 0 (a=p) must equal left face of element 1 (a=0).
	for c := 0; c <= p; c++ {
		for bb := 0; bb <= p; bb++ {
			l := left[localIndex(p, p, bb, c)]
			r := right[localIndex(p, 0, bb, c)]
			if l != r {
				t.Fatalf("face node mismatch at (b=%d,c=%d): %d vs %d", bb, c, l, r)
			}
		}
	}
}

// Periodic collapse: the last element's far face wraps onto the first
// element's near face.
func TestCoincidentNodesPeriodicWrap(t *testing.T) {
	b := mustBox(t, 3, 2, 2, 2, [3]bool{true, false, false})
	first := b.ElementNodeIDs(nil, 0, 0, 0)
	last := b.ElementNodeIDs(nil, 2, 0, 0)
	p := b.P
	for c := 0; c <= p; c++ {
		for bb := 0; bb <= p; bb++ {
			near := first[localIndex(p, 0, bb, c)]
			far := last[localIndex(p, p, bb, c)]
			if near != far {
				t.Fatalf("periodic wrap mismatch at (b=%d,c=%d): %d vs %d", bb, c, near, far)
			}
		}
	}
}

// Counting all unique IDs over all elements must give NumNodes.
func TestElementNodeIDsCoverAllNodes(t *testing.T) {
	for _, per := range [][3]bool{{false, false, false}, {true, true, true}, {true, false, true}} {
		b := mustBox(t, 3, 2, 2, 3, per)
		seen := make(map[int64]bool)
		var buf []int64
		for g := 0; g < b.Ez; g++ {
			for f := 0; f < b.Ey; f++ {
				for e := 0; e < b.Ex; e++ {
					buf = b.ElementNodeIDs(buf[:0], e, f, g)
					for _, id := range buf {
						if id < 0 || id >= b.NumNodes() {
							t.Fatalf("node ID %d out of range [0,%d)", id, b.NumNodes())
						}
						seen[id] = true
					}
				}
			}
		}
		if int64(len(seen)) != b.NumNodes() {
			t.Fatalf("periodic=%v: saw %d unique nodes, want %d", per, len(seen), b.NumNodes())
		}
	}
}

func TestNodeCoordEndpointsAndOrder(t *testing.T) {
	b := mustBox(t, 2, 2, 2, 4, [3]bool{})
	b.Lx, b.Ly, b.Lz = 2, 4, 8
	// First node at origin, last at (Lx,Ly,Lz).
	x, y, z := b.NodeCoord(0)
	if x != 0 || y != 0 || z != 0 {
		t.Fatalf("first node at (%v,%v,%v)", x, y, z)
	}
	x, y, z = b.NodeCoord(b.NumNodes() - 1)
	if math.Abs(x-2) > 1e-12 || math.Abs(y-4) > 1e-12 || math.Abs(z-8) > 1e-12 {
		t.Fatalf("last node at (%v,%v,%v)", x, y, z)
	}
	// Coordinates along the x lattice must be strictly increasing.
	prev := -1.0
	for ix := 0; ix < b.nx; ix++ {
		cx, _, _ := b.NodeCoord(b.nodeID(ix, 0, 0))
		if cx <= prev {
			t.Fatalf("x coords not increasing at ix=%d: %v <= %v", ix, cx, prev)
		}
		prev = cx
	}
}

// Coincident nodes must agree on physical position: since collapse is by
// construction, verify instead that the element-face coordinate of the
// shared lattice point equals the element boundary plane.
func TestNodeCoordElementBoundary(t *testing.T) {
	b := mustBox(t, 4, 1, 1, 5, [3]bool{})
	// lattice index 5 = boundary between elements 0 and 1 at x = 0.25.
	x, _, _ := b.NodeCoord(b.nodeID(5, 0, 0))
	if math.Abs(x-0.25) > 1e-12 {
		t.Fatalf("boundary node x = %v, want 0.25", x)
	}
}

// GLL spacing inside an element is non-uniform for p >= 2 (paper Fig. 2):
// the first gap must be smaller than the central gap.
func TestNodeCoordGLLNonUniform(t *testing.T) {
	b := mustBox(t, 1, 1, 1, 5, [3]bool{})
	x0, _, _ := b.NodeCoord(b.nodeID(0, 0, 0))
	x1, _, _ := b.NodeCoord(b.nodeID(1, 0, 0))
	x2, _, _ := b.NodeCoord(b.nodeID(2, 0, 0))
	x3, _, _ := b.NodeCoord(b.nodeID(3, 0, 0))
	if (x1 - x0) >= (x3-x2)*0.9 {
		t.Fatalf("GLL spacing not clustered at boundary: %v vs %v", x1-x0, x3-x2)
	}
}

func TestElementEdgeCountsMatchPaperFig2(t *testing.T) {
	// Paper Fig. 2: p=1 -> 8 nodes, 24 (directed) edges; p=3 -> 64/288;
	// p=5 -> 216/1080.
	cases := []struct{ p, nodes, edges int }{
		{1, 8, 24}, {3, 64, 288}, {5, 216, 1080},
	}
	for _, c := range cases {
		b := mustBox(t, 1, 1, 1, c.p, [3]bool{})
		if b.NodesPerElement() != c.nodes {
			t.Fatalf("p=%d: nodes %d, want %d", c.p, b.NodesPerElement(), c.nodes)
		}
		edges := b.ElementEdges()
		// 6 p (p+1)^2 directed intra-element edges.
		if formula := 6 * c.p * (c.p + 1) * (c.p + 1); len(edges) != c.edges || formula != c.edges {
			t.Fatalf("p=%d: edges %d (formula %d), want %d", c.p, len(edges), formula, c.edges)
		}
	}
}

func TestElementEdgesSymmetricNoSelfLoops(t *testing.T) {
	b := mustBox(t, 1, 1, 1, 4, [3]bool{})
	edges := b.ElementEdges()
	set := make(map[[2]int]bool, len(edges))
	for _, e := range edges {
		if e[0] == e[1] {
			t.Fatalf("self loop %v", e)
		}
		if set[e] {
			t.Fatalf("duplicate edge %v", e)
		}
		set[e] = true
	}
	for _, e := range edges {
		if !set[[2]int{e[1], e[0]}] {
			t.Fatalf("missing reverse of %v", e)
		}
	}
}

// Property: for random meshes, total node instances minus shared instances
// equals unique nodes (Euler-style counting along each axis).
func TestNodeCountProperty(t *testing.T) {
	f := func(ex8, ey8, ez8, p8 uint8, perx, pery, perz bool) bool {
		ex, ey, ez := int(ex8%4)+2, int(ey8%4)+2, int(ez8%4)+2
		p := int(p8%4) + 1
		b, err := NewBox(ex, ey, ez, p, [3]bool{perx, pery, perz})
		if err != nil {
			return false
		}
		dims := [3]int{ex, ey, ez}
		want := int64(1)
		for d := 0; d < 3; d++ {
			n := dims[d] * p
			if !b.Periodic[d] {
				n++
			}
			want *= int64(n)
		}
		return b.NumNodes() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkElementNodeIDsP5(b *testing.B) {
	box, _ := NewBox(8, 8, 8, 5, [3]bool{})
	var buf []int64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = box.ElementNodeIDs(buf[:0], 3, 4, 5)
	}
}

func TestCustomDomainExtents(t *testing.T) {
	b := mustBox(t, 2, 2, 2, 1, [3]bool{})
	b.Lx, b.Ly, b.Lz = 3, 5, 7
	x, y, z := b.NodeCoord(b.NumNodes() - 1)
	if x != 3 || y != 5 || z != 7 {
		t.Fatalf("far corner at (%v,%v,%v)", x, y, z)
	}
}
