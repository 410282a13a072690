package meshgnn

import (
	"math"
	"testing"
)

func TestPublicAPIQuickstart(t *testing.T) {
	m, err := NewMesh(4, 4, 2, 1, FullyPeriodic)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(m, 4, Blocks)
	if err != nil {
		t.Fatal(err)
	}
	losses, err := RunCollect(sys, NeighborAllToAll, func(r *Rank) (float64, error) {
		model, err := NewModel(SmallConfig())
		if err != nil {
			return 0, err
		}
		trainer := NewTrainer(model, NewAdam(1e-3))
		x := r.Sample(TaylorGreen{V0: 1, L: 1, Nu: 0.01}, 0)
		var last float64
		for i := 0; i < 3; i++ {
			last = trainer.Step(r.Ctx, x, x)
		}
		return last, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for rank, l := range losses {
		if l != losses[0] {
			t.Fatalf("rank %d loss %v differs", rank, l)
		}
		if math.IsNaN(l) || l <= 0 {
			t.Fatalf("bad loss %v", l)
		}
	}
}

func TestVerifyConsistencyPublic(t *testing.T) {
	m, err := NewMesh(4, 2, 2, 2, NonPeriodic)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(m, 4, Blocks)
	if err != nil {
		t.Fatal(err)
	}
	cfg := SmallConfig()
	cfg.MessagePassingLayers = 2
	diff, err := VerifyConsistency(sys, cfg, NeighborAllToAll, TaylorGreen{V0: 1, L: 1, Nu: 0.01}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if diff > 1e-11 {
		t.Fatalf("consistency violated: %g", diff)
	}
	// Without exchanges the same check must fail visibly.
	diffNone, err := VerifyConsistency(sys, cfg, NoExchange, TaylorGreen{V0: 1, L: 1, Nu: 0.01}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if diffNone < 1e-9 {
		t.Fatalf("no-exchange run unexpectedly consistent: %g", diffNone)
	}
}

func TestSystemStats(t *testing.T) {
	m, err := NewMesh(4, 4, 4, 1, NonPeriodic)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(m, 8, Blocks)
	if err != nil {
		t.Fatal(err)
	}
	stats := sys.Stats()
	if len(stats) != 8 {
		t.Fatalf("%d stats", len(stats))
	}
	var halo int64
	for _, s := range stats {
		if s.LocalNodes <= 0 {
			t.Fatal("empty rank")
		}
		halo += s.HaloNodes
	}
	if halo == 0 {
		t.Fatal("no halos on a partitioned mesh")
	}
}

func TestRankHelpers(t *testing.T) {
	m, _ := NewMesh(2, 2, 2, 1, NonPeriodic)
	sys, _ := NewSystem(m, 2, Slabs)
	err := sys.Run(NeighborAllToAll, func(r *Rank) error {
		if r.ID() != r.Ctx.Comm.Rank() {
			t.Error("ID mismatch")
		}
		x := r.Sample(GaussianPulse{Amplitude: 1, Sigma0: 0.2, Alpha: 0.1, Cx: 0.5, Cy: 0.5, Cz: 0.5}, 0)
		if l := r.Loss(x, x); l != 0 {
			t.Errorf("self-loss %v", l)
		}
		out, disc := r.Assemble(x)
		if r.ID() == 0 {
			if out == nil || out.Rows != int(m.NumNodes()) {
				t.Error("assemble shape wrong")
			}
			if disc != 0 {
				t.Errorf("field sample discrepancy %v", disc)
			}
		} else if out != nil {
			t.Error("non-root rank got assembled output")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
