package gnn

import (
	"math"
	"testing"

	"meshgnn/internal/comm"
	"meshgnn/internal/mesh"
)

// wavyWall compresses y toward a bottom wall that is a sine of amplitude
// amp with waves periods along x: a non-affine wall.
func wavyWall(amp float64, waves int) mesh.Mapping {
	return func(x, y, z float64) (float64, float64, float64) {
		wall := amp * math.Sin(2*math.Pi*float64(waves)*x)
		return x, wall + y*(1-wall), z
	}
}

// gradedWall clusters nodes toward y = 0 by tanh grading of strength beta:
// the spacing grows away from the wall.
func gradedWall(beta float64) mesh.Mapping {
	norm := math.Tanh(beta)
	return func(x, y, z float64) (float64, float64, float64) {
		return x, 1 - math.Tanh(beta*(1-y))/norm, z
	}
}

// Complex geometry (the paper's motivating requirement): consistency must
// hold on curvilinear meshes too — the mapping changes node coordinates
// and edge features but not the halo structure.
func TestConsistencyOnMappedMeshes(t *testing.T) {
	mappings := map[string]mesh.Mapping{
		"annulus": mesh.AnnulusSector(1, 2, math.Pi/3),
		"wavy":    wavyWall(0.08, 2),
		"graded":  gradedWall(2.5),
	}
	for name, mp := range mappings {
		box, err := mesh.NewBox(4, 3, 2, 2, [3]bool{})
		if err != nil {
			t.Fatal(err)
		}
		if err := box.SetMapping(mp); err != nil {
			t.Fatal(err)
		}
		ref := runForwardLoss(t, box, 1, comm.NeighborAllToAll, tinyConfig(), false)
		got := runForwardLoss(t, box, 4, comm.NeighborAllToAll, tinyConfig(), false)
		if d := got.output.MaxAbsDiff(ref.output); d > 1e-11 {
			t.Fatalf("%s: mapped-mesh output deviates by %g", name, d)
		}
		if rel := math.Abs(got.loss-ref.loss) / (1 + ref.loss); rel > 1e-12 {
			t.Fatalf("%s: mapped-mesh loss deviates rel %g", name, rel)
		}
	}
}

// Mapped meshes must change the model's output relative to the reference
// box (the geometry enters through the edge features).
func TestMappingChangesEdgeGeometry(t *testing.T) {
	plain, err := mesh.NewBox(4, 3, 2, 2, [3]bool{})
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := mesh.NewBox(4, 3, 2, 2, [3]bool{})
	if err != nil {
		t.Fatal(err)
	}
	if err := mapped.SetMapping(wavyWall(0.1, 2)); err != nil {
		t.Fatal(err)
	}
	a := runForwardLoss(t, plain, 1, comm.NoExchange, tinyConfig(), false)
	b := runForwardLoss(t, mapped, 1, comm.NoExchange, tinyConfig(), false)
	if math.Abs(a.loss-b.loss) < 1e-9 {
		t.Fatal("mapping did not affect the model (edge features unchanged?)")
	}
}
