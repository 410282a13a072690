package gnn

import (
	"testing"
	"time"

	"meshgnn/internal/comm"
	"meshgnn/internal/graph"
	"meshgnn/internal/mesh"
	"meshgnn/internal/nn"
	"meshgnn/internal/partition"
)

func TestStepTimingAccumulates(t *testing.T) {
	box, l := singleRankSetup(t, tinyConfig())
	err := comm.Run(1, func(c *comm.Comm) error {
		rc, err := NewRankContext(c, box, l, comm.NoExchange)
		if err != nil {
			return err
		}
		model, _ := NewModel(tinyConfig())
		tr := NewTrainer(model, nn.NewAdam(1e-3))
		x := waveField(rc.Graph)
		start := time.Now()
		tr.Step(rc, x, x)
		tr.Step(rc, x, x)
		wall := time.Since(start)
		timing := tr.Timing()
		if timing.Steps != 2 {
			t.Errorf("Steps = %d", timing.Steps)
		}
		if timing.Forward <= 0 || timing.Backward <= 0 || timing.Total() <= 0 {
			t.Errorf("non-positive phases: %+v", timing)
		}
		// The phases are disjoint laps inside the steps, so together they
		// cannot outlast the steps.
		if timing.Total() > wall {
			t.Errorf("phases total %v over the %v the two steps took: %+v", timing.Total(), wall, timing)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestHaloSecondsCounted(t *testing.T) {
	box, err := mesh.NewBox(4, 2, 2, 1, [3]bool{})
	if err != nil {
		t.Fatal(err)
	}
	part, err := partition.NewCartesian(box, 2, partition.Slabs)
	if err != nil {
		t.Fatal(err)
	}
	locals, err := graph.BuildAll(box, part)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []comm.ExchangeMode{comm.NoExchange, comm.NeighborAllToAll} {
		results, err := comm.RunCollect(2, func(c *comm.Comm) (float64, error) {
			rc, err := NewRankContext(c, box, locals[c.Rank()], mode)
			if err != nil {
				return 0, err
			}
			model, _ := NewModel(tinyConfig())
			tr := NewTrainer(model, nn.NewAdam(1e-3))
			x := waveField(rc.Graph)
			tr.Step(rc, x, x)
			return c.Stats.HaloSeconds, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if mode == comm.NoExchange && results[0] != 0 {
			t.Errorf("no-exchange run accumulated halo time %v", results[0])
		}
		if mode == comm.NeighborAllToAll && results[0] <= 0 {
			t.Errorf("exchange run has zero halo time")
		}
	}
}

// TestStepTimingHaloSplit pins the Halo phase split: with a real exchange
// the trainer books halo time (and its exposed subset) separately from
// Forward/Backward; with NoExchange both stay zero.
func TestStepTimingHaloSplit(t *testing.T) {
	box, err := mesh.NewBox(4, 2, 2, 1, [3]bool{})
	if err != nil {
		t.Fatal(err)
	}
	part, err := partition.NewCartesian(box, 2, partition.Slabs)
	if err != nil {
		t.Fatal(err)
	}
	locals, err := graph.BuildAll(box, part)
	if err != nil {
		t.Fatal(err)
	}
	for _, overlap := range []bool{false, true} {
		for _, mode := range []comm.ExchangeMode{comm.NoExchange, comm.NeighborAllToAll} {
			cfg := tinyConfig()
			cfg.Overlap = overlap
			results, err := comm.RunCollect(2, func(c *comm.Comm) (StepTiming, error) {
				rc, err := NewRankContext(c, box, locals[c.Rank()], mode)
				if err != nil {
					return StepTiming{}, err
				}
				model, _ := NewModel(cfg)
				tr := NewTrainer(model, nn.NewAdam(1e-3))
				x := waveField(rc.Graph)
				tr.Step(rc, x, x)
				tr.Step(rc, x, x)
				return tr.Timing(), nil
			})
			if err != nil {
				t.Fatal(err)
			}
			tm := results[0]
			if mode == comm.NoExchange {
				if tm.Halo != 0 || tm.HaloExposed != 0 {
					t.Errorf("overlap=%v: no-exchange run booked halo time %v (exposed %v)",
						overlap, tm.Halo, tm.HaloExposed)
				}
				continue
			}
			if tm.Halo <= 0 {
				t.Errorf("overlap=%v: exchange run booked no halo time: %+v", overlap, tm)
			}
			if tm.HaloExposed > tm.Halo {
				t.Errorf("overlap=%v: exposed %v exceeds halo %v", overlap, tm.HaloExposed, tm.Halo)
			}
			if tm.Total() <= 0 || tm.Forward <= 0 {
				t.Errorf("overlap=%v: degenerate breakdown: %+v", overlap, tm)
			}
		}
	}
}
