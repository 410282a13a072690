package mesh

import (
	"math"
	"testing"
)

func TestSetMappingRejectsPeriodic(t *testing.T) {
	b := mustBox(t, 2, 2, 2, 1, [3]bool{true, false, false})
	if err := b.SetMapping(AnnulusSector(1, 2, 1)); err == nil {
		t.Fatal("expected error on periodic mesh")
	}
	if b.Mapped() {
		t.Fatal("mapping must not be installed after failure")
	}
}

func TestAnnulusSectorGeometry(t *testing.T) {
	b := mustBox(t, 4, 4, 2, 2, [3]bool{})
	if err := b.SetMapping(AnnulusSector(1, 2, math.Pi/2)); err != nil {
		t.Fatal(err)
	}
	if !b.Mapped() {
		t.Fatal("Mapped() false")
	}
	// Every node radius must lie in [1, 2].
	for id := int64(0); id < b.NumNodes(); id++ {
		x, y, _ := b.NodeCoord(id)
		r := math.Hypot(x, y)
		if r < 1-1e-12 || r > 2+1e-12 {
			t.Fatalf("node %d radius %v outside [1,2]", id, r)
		}
		// Quarter annulus: both x and y non-negative.
		if x < -1e-12 || y < -1e-12 {
			t.Fatalf("node %d at (%v,%v) outside the sector", id, x, y)
		}
	}
}

func TestMappingPreservesCoincidence(t *testing.T) {
	// Mapped coordinates are functions of the global lattice point, so
	// coincident nodes (same global ID) trivially share positions; check
	// that distinct nodes get distinct positions (mapping injective on
	// this domain).
	b := mustBox(t, 3, 3, 2, 2, [3]bool{})
	if err := b.SetMapping(AnnulusSector(1, 2, 1)); err != nil {
		t.Fatal(err)
	}
	seen := make(map[[3]float64]int64)
	for id := int64(0); id < b.NumNodes(); id++ {
		x, y, z := b.NodeCoord(id)
		key := [3]float64{x, y, z}
		if other, dup := seen[key]; dup {
			t.Fatalf("nodes %d and %d mapped to the same point", other, id)
		}
		seen[key] = id
	}
}
