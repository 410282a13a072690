package gnn

import (
	"math"
	"testing"

	"meshgnn/internal/comm"
	"meshgnn/internal/graph"
	"meshgnn/internal/mesh"
	"meshgnn/internal/nn"
	"meshgnn/internal/partition"
	"meshgnn/internal/tensor"
)

func TestNoiseFieldDeterministic(t *testing.T) {
	box, _ := mesh.NewBox(2, 2, 2, 1, [3]bool{})
	l, err := graph.BuildSingle(box)
	if err != nil {
		t.Fatal(err)
	}
	a := NoiseField(l, 3, 0.1, 42)
	b := NoiseField(l, 3, 0.1, 42)
	if !a.Equal(b) {
		t.Fatal("noise not deterministic for the same seed")
	}
	c := NoiseField(l, 3, 0.1, 43)
	if a.Equal(c) {
		t.Fatal("different seeds must give different noise")
	}
	if z := NoiseField(l, 3, 0, 42); tensor.Frobenius(z) != 0 {
		t.Fatal("sigma=0 must give zero noise")
	}
}

func TestNoiseFieldStatistics(t *testing.T) {
	box, _ := mesh.NewBox(6, 6, 6, 2, [3]bool{})
	l, err := graph.BuildSingle(box)
	if err != nil {
		t.Fatal(err)
	}
	n := NoiseField(l, 3, 1.0, 7)
	var sum, sumSq float64
	cnt := float64(len(n.Data))
	for _, v := range n.Data {
		sum += v
		sumSq += v * v
	}
	mean := sum / cnt
	variance := sumSq/cnt - mean*mean
	if math.Abs(mean) > 0.03 {
		t.Fatalf("noise mean %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Fatalf("noise variance %v, want ~1", variance)
	}
}

// Coincident nodes on different ranks must receive identical noise —
// that is what makes noisy training partition-consistent.
func TestNoiseFieldPartitionConsistent(t *testing.T) {
	box, _ := mesh.NewBox(4, 2, 2, 2, [3]bool{})
	part, err := partition.NewCartesian(box, 4, partition.Slabs)
	if err != nil {
		t.Fatal(err)
	}
	locals, err := graph.BuildAll(box, part)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int64][3]float64)
	for _, l := range locals {
		n := NoiseField(l, 3, 0.5, 99)
		for i, gid := range l.GlobalIDs {
			var row [3]float64
			copy(row[:], n.Row(i))
			if prev, ok := seen[gid]; ok && prev != row {
				t.Fatalf("node %d: noise differs across ranks: %v vs %v", gid, prev, row)
			}
			seen[gid] = row
		}
	}
	if int64(len(seen)) != box.NumNodes() {
		t.Fatalf("covered %d nodes, want %d", len(seen), box.NumNodes())
	}
}

func TestDatasetAddValidation(t *testing.T) {
	var ds Dataset
	ds.Add(tensor.New(4, 3), tensor.New(4, 3))
	if ds.Len() != 1 {
		t.Fatal("Len != 1")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched rows")
		}
	}()
	ds.Add(tensor.New(4, 3), tensor.New(5, 3))
}

// Fit with shuffling and noise must (a) reduce the loss and (b) remain
// partition-invariant: the noisy R=2 trajectory equals the noisy R=1
// trajectory because shuffling and noise are both keyed globally.
func TestFitNoisyTrajectoryConsistency(t *testing.T) {
	box, err := mesh.NewBox(3, 2, 2, 1, [3]bool{})
	if err != nil {
		t.Fatal(err)
	}
	run := func(r int) []float64 {
		strat := partition.Slabs
		part, err := partition.NewCartesian(box, r, strat)
		if err != nil {
			t.Fatal(err)
		}
		locals, err := graph.BuildAll(box, part)
		if err != nil {
			t.Fatal(err)
		}
		results, err := comm.RunCollect(r, func(c *comm.Comm) ([]float64, error) {
			rc, err := NewRankContext(c, box, locals[c.Rank()], comm.NeighborAllToAll)
			if err != nil {
				return nil, err
			}
			model, err := NewModel(tinyConfig())
			if err != nil {
				return nil, err
			}
			tr := NewTrainer(model, nn.NewAdam(1e-2))
			var ds Dataset
			x := waveField(rc.Graph)
			scaled := x.Clone()
			for i := range scaled.Data {
				scaled.Data[i] *= 0.8
			}
			ds.Add(x, x)
			ds.Add(scaled, scaled)
			return tr.Fit(rc, &ds, FitOptions{
				Epochs:      5,
				ShuffleSeed: 7,
				NoiseSigma:  0.05,
				NoiseSeed:   13,
			}), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return results[0]
	}
	ref := run(1)
	got := run(2)
	if len(ref) != 5 {
		t.Fatalf("epoch count %d", len(ref))
	}
	for e := range ref {
		if rel := math.Abs(got[e]-ref[e]) / (1 + ref[e]); rel > 1e-9 {
			t.Fatalf("epoch %d: noisy trajectory deviates rel %g (%v vs %v)", e, rel, got[e], ref[e])
		}
	}
	if ref[len(ref)-1] >= ref[0] {
		t.Fatalf("Fit did not reduce the loss: %v -> %v", ref[0], ref[len(ref)-1])
	}
}

func TestFitEmptyDataset(t *testing.T) {
	box, l := singleRankSetup(t, tinyConfig())
	err := comm.Run(1, func(c *comm.Comm) error {
		rc, err := NewRankContext(c, box, l, comm.NoExchange)
		if err != nil {
			return err
		}
		model, _ := NewModel(tinyConfig())
		tr := NewTrainer(model, nn.NewAdam(1e-3))
		if out := tr.Fit(rc, &Dataset{}, FitOptions{Epochs: 3}); out != nil {
			t.Errorf("empty dataset returned %v", out)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
