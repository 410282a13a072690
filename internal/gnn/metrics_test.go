package gnn

import (
	"math"
	"testing"

	"meshgnn/internal/comm"
	"meshgnn/internal/graph"
	"meshgnn/internal/mesh"
	"meshgnn/internal/partition"
	"meshgnn/internal/tensor"
)

func TestEvaluateKnownValues(t *testing.T) {
	box, l := singleRankSetup(t, tinyConfig())
	err := comm.Run(1, func(c *comm.Comm) error {
		rc, err := NewRankContext(c, box, l, comm.NoExchange)
		if err != nil {
			return err
		}
		n := rc.Graph.NumLocal()
		y := tensor.New(n, 2)
		target := tensor.New(n, 2)
		for i := 0; i < n; i++ {
			y.Set(i, 0, 2)      // error +2 in column 0
			target.Set(i, 1, 1) // error -1 in column 1
		}
		m := Evaluate(rc, y, target)
		// MSE = (4 + 1)/2 = 2.5; MAE = (2+1)/2 = 1.5; MaxAbs = 2.
		if math.Abs(m.MSE-2.5) > 1e-12 || math.Abs(m.MAE-1.5) > 1e-12 || m.MaxAbs != 2 {
			t.Errorf("metrics %+v", m)
		}
		// RelL2 = sqrt(5N / N) / ... ref² sum = 1 per node → sqrt(5).
		if math.Abs(m.RelL2-math.Sqrt(5)) > 1e-12 {
			t.Errorf("RelL2 %v", m.RelL2)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Metrics must be partition-invariant and identical on every rank.
func TestEvaluateConsistency(t *testing.T) {
	box, err := mesh.NewBox(4, 2, 2, 2, [3]bool{})
	if err != nil {
		t.Fatal(err)
	}
	run := func(r int) Metrics {
		strat := partition.Blocks
		if r == 1 {
			strat = partition.Slabs
		}
		part, err := partition.NewCartesian(box, r, strat)
		if err != nil {
			t.Fatal(err)
		}
		locals, err := graph.BuildAll(box, part)
		if err != nil {
			t.Fatal(err)
		}
		results, err := comm.RunCollect(r, func(c *comm.Comm) (Metrics, error) {
			rc, err := NewRankContext(c, box, locals[c.Rank()], comm.NeighborAllToAll)
			if err != nil {
				return Metrics{}, err
			}
			model, err := NewModel(tinyConfig())
			if err != nil {
				return Metrics{}, err
			}
			x := waveField(rc.Graph)
			return Evaluate(rc, model.Forward(rc, x), x), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range results {
			if m != results[0] {
				t.Fatal("ranks disagree on metrics")
			}
		}
		return results[0]
	}
	ref := run(1)
	got := run(4)
	for _, pair := range [][2]float64{
		{ref.MSE, got.MSE}, {ref.MAE, got.MAE}, {ref.MaxAbs, got.MaxAbs}, {ref.RelL2, got.RelL2},
	} {
		if rel := math.Abs(pair[0]-pair[1]) / (1 + math.Abs(pair[0])); rel > 1e-11 {
			t.Fatalf("metric deviates: %v vs %v", pair[0], pair[1])
		}
	}
}
