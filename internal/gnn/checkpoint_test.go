package gnn

import (
	"bytes"
	"testing"

	"meshgnn/internal/comm"
	"meshgnn/internal/nn"
)

// Exact resumption: train k steps, checkpoint, train k more; versus train
// 2k steps straight. The two final parameter sets must be bitwise equal —
// Adam moments and step count included.
func TestTrainingResumptionExact(t *testing.T) {
	cfg := tinyConfig()
	box, l := singleRankSetup(t, cfg)
	err := comm.Run(1, func(c *comm.Comm) error {
		rc, err := NewRankContext(c, box, l, comm.NoExchange)
		if err != nil {
			return err
		}
		x := waveField(rc.Graph)

		// Uninterrupted run: 6 steps.
		mA, _ := NewModel(cfg)
		trA := NewTrainer(mA, nn.NewAdam(1e-2))
		for i := 0; i < 6; i++ {
			trA.Step(rc, x, x)
		}

		// Interrupted run: 3 steps, checkpoint, restore, 3 more steps.
		mB, _ := NewModel(cfg)
		trB := NewTrainer(mB, nn.NewAdam(1e-2))
		for i := 0; i < 3; i++ {
			trB.Step(rc, x, x)
		}
		var buf bytes.Buffer
		if err := SaveTrainingState(&buf, trB); err != nil {
			return err
		}
		trC, err := LoadTrainingState(&buf, nn.NewAdam(1e-2))
		if err != nil {
			return err
		}
		for i := 0; i < 3; i++ {
			trC.Step(rc, x, x)
		}

		pa, pc := trA.Model.Params(), trC.Model.Params()
		for i := range pa {
			if !pa[i].W.Equal(pc[i].W) {
				t.Errorf("parameter %s differs after resume (max diff %g)",
					pa[i].Name, pa[i].W.MaxAbsDiff(pc[i].W))
				break
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLoadTrainingStateCorrupt(t *testing.T) {
	if _, err := LoadTrainingState(bytes.NewReader([]byte("junk")), nn.NewAdam(1e-3)); err == nil {
		t.Fatal("expected error")
	}
}
