package gnn

import (
	"testing"

	"meshgnn/internal/comm"
	"meshgnn/internal/graph"
	"meshgnn/internal/mesh"
	"meshgnn/internal/nn"
	"meshgnn/internal/parallel"
)

// TestParallelDispatchBudget pins how many parallel regions one evaluation
// and one training step hand to the worker pool, on the benchmark's
// compute-bound shape (LargeConfig, 512 nodes, 3 072 edges, 2 threads). A
// dispatched region costs a worker wake of 100–200 µs on a small host
// (package parallel, "region granularity"), so the MLP block is the unit of
// dispatch: per-kernel regions — 191 per Predict and 468 per Step before
// the blocks were fused — must not creep back. The budgets are the measured
// counts, so neither can a single one: 34 per Predict at either precision
// (the synchronous split's empty during-exchange spans dispatch nothing),
// 81 per Step (85 until the synchronous backward folded the upstream edge
// gradient into its gather, as the phased one always did).
func TestParallelDispatchBudget(t *testing.T) {
	parallel.Configure(2, true)
	defer parallel.Configure(0, true)
	box, err := mesh.NewBox(4, 4, 4, 2, [3]bool{true, true, true})
	if err != nil {
		t.Fatal(err)
	}
	l, err := graph.BuildSingle(box)
	if err != nil {
		t.Fatal(err)
	}
	dispatched := func(op func()) uint64 {
		op() // warm: bind, record the arena, pack
		before := parallel.Stats()
		op()
		after := parallel.Stats()
		if ran, chunks := after.Dispatched-before.Dispatched,
			after.CallerChunks-before.CallerChunks+after.WorkerChunks-before.WorkerChunks; chunks < 2*ran {
			t.Errorf("%d dispatched regions ran %d chunks; every dispatched region has at least two", ran, chunks)
		}
		return after.Dispatched - before.Dispatched
	}
	err = comm.Run(1, func(c *comm.Comm) error {
		rc, err := NewRankContext(c, box, l, comm.NoExchange)
		if err != nil {
			return err
		}
		x := waveField(rc.Graph)
		for _, prec := range []Precision{Float64, Float32} {
			cfg := LargeConfig()
			cfg.Precision = prec
			model, err := NewModel(cfg)
			if err != nil {
				return err
			}
			eng, err := NewInference(model)
			if err != nil {
				return err
			}
			if n := dispatched(func() { eng.Predict(rc, x) }); n > 34 {
				t.Errorf("%v Predict dispatches %d regions, budget 34", prec, n)
			}
		}
		model, err := NewModel(LargeConfig())
		if err != nil {
			return err
		}
		tr := NewTrainer(model, nn.NewAdam(1e-3))
		if n := dispatched(func() { tr.Step(rc, x, x) }); n > 81 {
			t.Errorf("Step dispatches %d regions, budget 81", n)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
