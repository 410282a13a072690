package gnn

import (
	"runtime"
	"testing"

	"meshgnn/internal/comm"
	"meshgnn/internal/graph"
	"meshgnn/internal/mesh"
	"meshgnn/internal/nn"
	"meshgnn/internal/parallel"
	"meshgnn/internal/partition"
	"meshgnn/internal/tensor"
)

// trainRun executes a short distributed training run (forward, consistent
// loss, backward, AllReduce, Adam) and returns the per-step losses, the
// final prediction, and the final flattened parameters of rank 0.
func trainRun(t *testing.T, box *mesh.Box, ranks, steps int, cfg Config) (losses []float64, y *tensor.Matrix, params []float64) {
	t.Helper()
	part, err := partition.NewCartesian(box, ranks, partition.Blocks)
	if err != nil {
		t.Fatal(err)
	}
	locals, err := graph.BuildAll(box, part)
	if err != nil {
		t.Fatal(err)
	}
	type runOut struct {
		losses []float64
		y      *tensor.Matrix
		params []float64
	}
	results, err := comm.RunCollect(ranks, func(c *comm.Comm) (runOut, error) {
		rc, err := NewRankContext(c, box, locals[c.Rank()], comm.NeighborAllToAll)
		if err != nil {
			return runOut{}, err
		}
		model, err := NewModel(cfg)
		if err != nil {
			return runOut{}, err
		}
		trainer := NewTrainer(model, nn.NewAdam(1e-3))
		x := waveField(rc.Graph)
		out := runOut{}
		for s := 0; s < steps; s++ {
			out.losses = append(out.losses, trainer.Step(rc, x, x))
		}
		out.y = model.Forward(rc, x)
		for _, p := range model.Params() {
			out.params = append(out.params, p.W.Data...)
		}
		return out, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return results[0].losses, results[0].y, results[0].params
}

// TestTrainingBitwiseDeterministicAcrossThreads is the acceptance check
// for the intra-rank engine: full distributed training steps — GEMMs, NMP
// gather/scatter, halo exchanges, gradient AllReduce, optimizer updates —
// must be bitwise-identical for any Threads setting. Losses, final outputs, and final parameters are all
// compared exactly against the Threads=1 run.
func TestTrainingBitwiseDeterministicAcrossThreads(t *testing.T) {
	defer parallel.Configure(0, true)
	box, err := mesh.NewBox(4, 4, 2, 2, [3]bool{true, true, true})
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyConfig()
	const ranks, steps = 4, 3

	parallel.Configure(1, true)
	refLosses, refY, refParams := trainRun(t, box, ranks, steps, cfg)

	for _, threads := range []int{2, 8} {
		parallel.Configure(threads, true)
		losses, y, params := trainRun(t, box, ranks, steps, cfg)
		for s := range refLosses {
			if losses[s] != refLosses[s] {
				t.Fatalf("threads=%d: step %d loss %x != serial %x",
					threads, s, losses[s], refLosses[s])
			}
		}
		if !y.Equal(refY) {
			t.Fatalf("threads=%d: final output differs from serial (max |Δ| = %g)",
				threads, y.MaxAbsDiff(refY))
		}
		for i := range refParams {
			if params[i] != refParams[i] {
				t.Fatalf("threads=%d: parameter %d differs bitwise after training", threads, i)
			}
		}
	}
}

// TestConfigThreadsKnob verifies the Config wiring: NewModel applies a
// positive Threads value to the engine, clamped to the core count, leaves
// the engine alone at 0, and rejects a negative value.
func TestConfigThreadsKnob(t *testing.T) {
	defer parallel.SetThreads(0)
	parallel.SetThreads(1)
	cfg := tinyConfig()
	cfg.Threads = 3
	if _, err := NewModel(cfg); err != nil {
		t.Fatal(err)
	}
	want := min(3, runtime.NumCPU())
	if got := parallel.Threads(); got != want {
		t.Fatalf("NewModel left Threads() = %d, want %d (clamped from 3)", got, want)
	}
	parallel.SetThreads(1)
	cfg.Threads = 0
	if _, err := NewModel(cfg); err != nil {
		t.Fatal(err)
	}
	if got := parallel.Threads(); got != 1 {
		t.Fatalf("NewModel with Threads = 0 changed the engine to %d threads, want 1", got)
	}
	cfg.Threads = -1
	if err := cfg.Validate(); err == nil {
		t.Fatal("Validate accepted negative Threads")
	}
}
