package meshgnn

import (
	"bytes"
	"fmt"
	"math"
	"testing"
)

func TestNewSystemRCB(t *testing.T) {
	m, err := NewMesh(5, 4, 3, 1, NonPeriodic)
	if err != nil {
		t.Fatal(err)
	}
	// 5 ranks: impossible for a Cartesian grid on this mesh, natural
	// for RCB.
	sys, err := NewSystemRCB(m, 5)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Ranks != 5 {
		t.Fatalf("ranks = %d", sys.Ranks)
	}
	diff, err := VerifyConsistency(sys, SmallConfig(), NeighborAllToAll, TaylorGreen{V0: 1, L: 1, Nu: 0.01}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if diff > 1e-11 {
		t.Fatalf("RCB system inconsistent: %g", diff)
	}
}

func TestDiffusionThroughFacade(t *testing.T) {
	m, err := NewMesh(4, 4, 2, 2, FullyPeriodic)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(m, 4, Blocks)
	if err != nil {
		t.Fatal(err)
	}
	energies, err := RunCollect(sys, NeighborAllToAll, func(r *Rank) ([2]float64, error) {
		d, err := r.NewDiffusion(0.5, 0.5)
		if err != nil {
			return [2]float64{}, err
		}
		x := r.Sample(TaylorGreen{V0: 1, L: 1, Nu: 0.01}, 0)
		u := &Matrix{Rows: x.Rows, Cols: 1, Data: make([]float64, x.Rows)}
		for i := 0; i < x.Rows; i++ {
			u.Data[i] = x.At(i, 0)
		}
		e0 := d.Energy(u)
		d.Run(u, 10, nil)
		return [2]float64{e0, d.Energy(u)}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for rank, e := range energies {
		if e[1] >= e[0] {
			t.Fatalf("rank %d: energy did not dissipate: %v -> %v", rank, e[0], e[1])
		}
		if e != energies[0] {
			t.Fatalf("rank %d: energies differ across ranks (AllReduced values must agree)", rank)
		}
	}
}

func TestFitWithNoiseThroughFacade(t *testing.T) {
	m, err := NewMesh(3, 2, 2, 1, NonPeriodic)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(m, 2, Slabs)
	if err != nil {
		t.Fatal(err)
	}
	curves, err := RunCollect(sys, NeighborAllToAll, func(r *Rank) ([]float64, error) {
		model, err := NewModel(SmallConfig())
		if err != nil {
			return nil, err
		}
		tr := NewTrainer(model, NewAdam(2e-3))
		var ds Dataset
		x := r.Sample(TaylorGreen{V0: 1, L: 1, Nu: 0.01}, 0)
		ds.Add(x, x)
		return tr.Fit(r.Ctx, &ds, FitOptions{Epochs: 10, ShuffleSeed: 3, NoiseSigma: 0.02, NoiseSeed: 4}), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	c := curves[0]
	if len(c) != 10 || c[9] >= c[0] {
		t.Fatalf("noisy Fit did not converge: %v", c)
	}
	for rank := range curves {
		for e := range c {
			if curves[rank][e] != c[e] {
				t.Fatalf("rank %d epoch %d: loss differs", rank, e)
			}
		}
	}
}

func TestSaveLoadThroughFacade(t *testing.T) {
	model, err := NewModel(SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveModel(&buf, model); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumParams() != model.NumParams() {
		t.Fatal("param count changed through facade save/load")
	}
}

func TestNoiseFieldThroughFacade(t *testing.T) {
	m, _ := NewMesh(2, 2, 2, 1, NonPeriodic)
	sys, _ := NewSystem(m, 1, Slabs)
	n := NoiseField(sys.Locals[0], 3, 0.5, 7)
	if n.Rows != sys.Locals[0].NumLocal() || n.Cols != 3 {
		t.Fatalf("noise shape %dx%d", n.Rows, n.Cols)
	}
	var norm float64
	for _, v := range n.Data {
		norm += v * v
	}
	if math.Sqrt(norm) == 0 {
		t.Fatal("zero noise")
	}
}

func TestTrainingStateThroughFacade(t *testing.T) {
	m, _ := NewMesh(2, 2, 2, 1, NonPeriodic)
	sys, _ := NewSystem(m, 1, Slabs)
	err := sys.Run(NoExchange, func(r *Rank) error {
		model, err := NewModel(SmallConfig())
		if err != nil {
			return err
		}
		tr := NewTrainer(model, NewAdam(1e-3))
		x := r.Sample(TaylorGreen{V0: 1, L: 1, Nu: 0.01}, 0)
		tr.Step(r.Ctx, x, x)
		var buf bytes.Buffer
		if err := SaveTrainingState(&buf, tr); err != nil {
			return err
		}
		tr2, err := LoadTrainingState(&buf, NewAdam(1e-3))
		if err != nil {
			return err
		}
		// Both trainers take the same next step.
		l1 := tr.Step(r.Ctx, x, x)
		l2 := tr2.Step(r.Ctx, x, x)
		if l1 != l2 {
			t.Errorf("resumed trainer diverged: %v vs %v", l1, l2)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestEvaluateThroughFacade(t *testing.T) {
	m, _ := NewMesh(2, 2, 2, 1, NonPeriodic)
	sys, _ := NewSystem(m, 2, Slabs)
	err := sys.Run(NeighborAllToAll, func(r *Rank) error {
		x := r.Sample(TaylorGreen{V0: 1, L: 1, Nu: 0.01}, 0)
		metrics := Evaluate(r.Ctx, x, x)
		if metrics.MSE != 0 || metrics.MaxAbs != 0 {
			t.Errorf("self metrics %+v", metrics)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunErrorPropagation(t *testing.T) {
	m, _ := NewMesh(2, 2, 2, 1, NonPeriodic)
	sys, _ := NewSystem(m, 2, Slabs)
	err := sys.Run(NoExchange, func(r *Rank) error {
		if r.ID() == 1 {
			return errBoom
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected error from rank 1")
	}
}

var errBoom = fmt.Errorf("boom")

func TestNewSystemErrors(t *testing.T) {
	m, _ := NewMesh(2, 2, 2, 1, NonPeriodic)
	if _, err := NewSystem(m, 100, Slabs); err == nil {
		t.Fatal("expected error for too many slabs")
	}
	if _, err := NewSystemRCB(m, 100); err == nil {
		t.Fatal("expected error for too many RCB ranks")
	}
}
