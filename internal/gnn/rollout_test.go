package gnn

import (
	"math"
	"testing"

	"meshgnn/internal/comm"
	"meshgnn/internal/graph"
	"meshgnn/internal/mesh"
	"meshgnn/internal/partition"
)

func TestRolloutLengthAndChaining(t *testing.T) {
	box, l := singleRankSetup(t, tinyConfig())
	err := comm.Run(1, func(c *comm.Comm) error {
		rc, err := NewRankContext(c, box, l, comm.NoExchange)
		if err != nil {
			return err
		}
		model, err := NewModel(tinyConfig())
		if err != nil {
			return err
		}
		x0 := waveField(rc.Graph)
		traj := Rollout(model, rc, x0, 3)
		if len(traj) != 4 {
			t.Errorf("trajectory length %d", len(traj))
		}
		if !traj[0].Equal(x0) {
			t.Error("first state must be the initial condition")
		}
		// Chaining: traj[2] must equal Forward(traj[1]).
		want := model.Forward(rc, traj[1])
		if d := want.MaxAbsDiff(traj[2]); d > 0 {
			t.Errorf("rollout does not chain: %g", d)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRolloutMismatchedWidthsPanics(t *testing.T) {
	cfg := tinyConfig()
	cfg.OutputNodeFeatures = 2
	box, l := singleRankSetup(t, cfg)
	err := comm.Run(1, func(c *comm.Comm) error {
		rc, err := NewRankContext(c, box, l, comm.NoExchange)
		if err != nil {
			return err
		}
		model, err := NewModel(cfg)
		if err != nil {
			return err
		}
		defer func() {
			if recover() == nil {
				t.Error("expected panic for mismatched widths")
			}
		}()
		Rollout(model, rc, waveField(rc.Graph), 1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Rollouts of a consistent model are partition-invariant trajectory-wide.
func TestRolloutConsistency(t *testing.T) {
	box, err := mesh.NewBox(4, 2, 2, 1, [3]bool{true, false, false})
	if err != nil {
		t.Fatal(err)
	}
	run := func(r int) []float64 {
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
		results, err := comm.RunCollect(r, func(c *comm.Comm) ([]float64, error) {
			rc, err := NewRankContext(c, box, locals[c.Rank()], comm.NeighborAllToAll)
			if err != nil {
				return nil, err
			}
			model, err := NewModel(tinyConfig())
			if err != nil {
				return nil, err
			}
			x0 := waveField(rc.Graph)
			traj := Rollout(model, rc, x0, 4)
			// Each state's consistent distance from the initial one.
			var loss ConsistentMSE
			dist := make([]float64, len(traj))
			for i, y := range traj {
				dist[i] = loss.Forward(rc, y, x0)
			}
			return dist, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return results[0]
	}
	ref := run(1)
	got := run(4)
	for s := range ref {
		if rel := math.Abs(got[s]-ref[s]) / (1 + ref[s]); rel > 1e-10 {
			t.Fatalf("step %d: rollout distances deviate rel %g", s, rel)
		}
	}
}
