package gnn

import (
	"math"
	"testing"

	"meshgnn/internal/comm"
	"meshgnn/internal/graph"
	"meshgnn/internal/mesh"
	"meshgnn/internal/partition"
)

// The paper's Eq. 2 requires invariance not only to the *number* of
// partitions but to their *location* ("invariant to both the number and
// location of sub-graph boundaries"). These tests evaluate the same model
// on the same mesh under structurally different decompositions — slabs,
// pencils, blocks, and irregular RCB — and require identical results.

// evalWithPartition runs one forward+loss under an arbitrary partition.
func evalWithPartition(t *testing.T, box *mesh.Box, part partition.Partition, cfg Config) float64 {
	t.Helper()
	locals, err := graph.BuildAll(box, part)
	if err != nil {
		t.Fatal(err)
	}
	r := part.NumRanks()
	results, err := comm.RunCollect(r, func(c *comm.Comm) (float64, error) {
		rc, err := NewRankContext(c, box, locals[c.Rank()], comm.NeighborAllToAll)
		if err != nil {
			return 0, err
		}
		model, err := NewModel(cfg)
		if err != nil {
			return 0, err
		}
		x := waveField(rc.Graph)
		y := model.Forward(rc, x)
		var loss ConsistentMSE
		return loss.Forward(rc, y, x), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return results[0]
}

func TestPartitionLocationInvariance(t *testing.T) {
	box, err := mesh.NewBox(4, 4, 4, 2, [3]bool{true, false, false})
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyConfig()

	single, err := partition.NewCartesian(box, 1, partition.Slabs)
	if err != nil {
		t.Fatal(err)
	}
	ref := evalWithPartition(t, box, single, cfg)

	// Same R=4, three different boundary layouts.
	slabs, err := partition.NewCartesian(box, 4, partition.Slabs)
	if err != nil {
		t.Fatal(err)
	}
	pencils, err := partition.NewCartesian(box, 4, partition.Pencils)
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := partition.NewCartesian(box, 4, partition.Blocks)
	if err != nil {
		t.Fatal(err)
	}
	for name, part := range map[string]partition.Partition{
		"slabs": slabs, "pencils": pencils, "blocks": blocks,
	} {
		got := evalWithPartition(t, box, part, cfg)
		if rel := math.Abs(got-ref) / (1 + ref); rel > 1e-12 {
			t.Fatalf("%s: loss %v deviates from R=1 %v (rel %g)", name, got, ref, rel)
		}
	}
}

// RCB produces irregular element sets; the graph builder and halo plans
// are partitioner-agnostic, so consistency must hold there too.
func TestRCBPartitionConsistency(t *testing.T) {
	box, err := mesh.NewBox(5, 4, 3, 2, [3]bool{false, true, false})
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyConfig()
	single, err := partition.NewCartesian(box, 1, partition.Slabs)
	if err != nil {
		t.Fatal(err)
	}
	ref := evalWithPartition(t, box, single, cfg)
	for _, r := range []int{2, 3, 5, 7} { // non-power-of-two rank counts
		rcb, err := partition.NewRCB(box, r)
		if err != nil {
			t.Fatal(err)
		}
		got := evalWithPartition(t, box, rcb, cfg)
		if rel := math.Abs(got-ref) / (1 + ref); rel > 1e-12 {
			t.Fatalf("RCB R=%d: loss %v deviates from R=1 %v (rel %g)", r, got, ref, rel)
		}
	}
}

// RCB gradient consistency: the full training step (backward through the
// halo adjoints and gradient AllReduce) must also be invariant to
// irregular partitions.
func TestRCBGradientConsistency(t *testing.T) {
	box, err := mesh.NewBox(4, 3, 2, 1, [3]bool{true, false, false})
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyConfig()

	grads := func(part partition.Partition) []float64 {
		locals, err := graph.BuildAll(box, part)
		if err != nil {
			t.Fatal(err)
		}
		results, err := comm.RunCollect(part.NumRanks(), func(c *comm.Comm) ([]float64, error) {
			rc, err := NewRankContext(c, box, locals[c.Rank()], comm.NeighborAllToAll)
			if err != nil {
				return nil, err
			}
			model, err := NewModel(cfg)
			if err != nil {
				return nil, err
			}
			x := waveField(rc.Graph)
			model.ZeroGrads()
			y := model.Forward(rc, x)
			var loss ConsistentMSE
			loss.Forward(rc, y, x)
			model.Backward(loss.Backward())
			return FlattenAllReducedGrads(c, model), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return results[0]
	}

	single, _ := partition.NewCartesian(box, 1, partition.Slabs)
	ref := grads(single)
	rcb, err := partition.NewRCB(box, 5)
	if err != nil {
		t.Fatal(err)
	}
	got := grads(rcb)
	var diff, norm float64
	for i := range ref {
		d := got[i] - ref[i]
		diff += d * d
		norm += ref[i] * ref[i]
	}
	if rel := math.Sqrt(diff / norm); rel > 1e-9 {
		t.Fatalf("RCB gradients deviate rel %g", rel)
	}
}
