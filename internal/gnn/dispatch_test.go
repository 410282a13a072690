package gnn

import (
	"fmt"
	"math/rand"
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

// TestParallelDispatchBudget pins how many parallel regions one evaluation
// and one training step hand to the worker pool, on the benchmark's
// compute-bound shape (LargeConfig, 512 nodes, 3 072 edges, 2 threads). A
// dispatched region costs a channel send, and a worker wake of 100–200 µs
// on a small host unless the worker is polling for it, which it does only
// between the regions of a lone op (package parallel, "region
// granularity" and "op brackets"), so a layer stage is the unit of
// dispatch: per-kernel regions — 191 per Predict and 468 per Step before
// the MLP blocks were fused, 34 and 81 while the gathers, concatenations
// and residual adds around the blocks were still regions of their own —
// must not creep back. The budgets are the measured counts, so neither can
// a single one: a Predict is node encoder + 4 × (edge stage, node stage) +
// decoder = 10 at either precision — one rank has no boundary prefix, so
// the aggregate before the exchange is empty and dispatches nothing, and
// under the synchronous split the interior rows are aggregated by the node
// stage's head, not by a region of their own (14 while they were); a Step
// is 10 forward (it also encodes the edges, in the node encoder's region),
// then per layer two chains, each carrying its parameter reductions in its
// one region, and the node parts of the edge MLP's first Linear (their
// input gradient and weight gradients, one region), one region for each
// of the three encoder/decoder blocks, and the optimizer's update:
// 10 + 4 × 3 + 3 + 1 = 26 (37 while every chain's reductions were a region
// of their own; 26 too when the edges were encoded in a region of their
// own and the optimizer ran on the caller alone).
//
// The engine's arenas are part of the same budget: a forward-only pass
// holds no (B·N_edges)×3H edge input — not even a row panel of one: the
// edge head writes the first Linear's H-wide output from the node
// projections — and no (B·N_local)×2H node input, which exists one row
// panel at a time in the evaluator's scratch, so its footprint stays below
// half of what it was when they were workspaces (2 129 920 float64s at
// float64, 1 064 960 at float32, B = 1). The projections themselves, P and
// Q of each layer's x, are workspaces, 2·B·N_local×H a layer; the arena's
// slabs absorbed them here, and the footprint read 983 040 and 491 520
// with and without them. Training holds no 3H-wide edge row either — not
// the first Linear's input cache, nor its input gradient: its backward
// takes the node parts per node — so what it adds to a pass's workspace is
// its backward caches at H width.
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
		op() // warm: bind, record the arena
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
		for prec, footBefore := range map[Precision]int{Float64: 2129920, Float32: 1064960} {
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
			if n := dispatched(func() { eng.Predict(rc, x) }); n > 10 {
				t.Errorf("%v Predict dispatches %d regions, budget 10", prec, n)
			}
			if foot := eng.WorkspaceFootprint(); 2*foot >= footBefore {
				t.Errorf("%v engine holds %d float64s of workspace, want below half of %d: an edge- or node-input matrix is back",
					prec, foot, footBefore)
			}
		}
		model, err := NewModel(LargeConfig())
		if err != nil {
			return err
		}
		tr := NewTrainer(model, nn.NewAdam(1e-3))
		if n := dispatched(func() { tr.Step(rc, x, x) }); n > 26 {
			t.Errorf("Step dispatches %d regions, budget 26", n)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestParallelDispatchBudgetPerSplit pins the regions of one message-passing layer —
// every ForTask/Panels.For with work to do, dispatched or inline — on two
// ranks, for both split points. Forward: the projection of x for the edge
// stage's head (a standalone layer has no stage before it whose tail
// could project x, so NMPLayer.Forward runs it as a region of its own;
// in a model it rides the node encoder's or the previous node stage's
// region), edge stage, the aggregate of the boundary prefix (every rank
// here has one; at this width it is shorter than its grain and runs
// inline), node stage, plus the during-exchange aggregate of the interior
// rows only under the phased split — under the synchronous one those rows
// are summed by the node stage's head, so the boundary prefix is the only
// aggregate region left and the count stays 4 (an empty span dispatches
// nothing). Backward: the node chain (its
// reductions ride its region), the halo-gradient gather, the edge chain,
// the node parts of the edge MLP's first Linear, plus the during-exchange
// edge gather only under the phased split. The
// counters are process-wide, so the two ranks bracket the layer with
// barriers and the expected count is both ranks' regions.
func TestParallelDispatchBudgetPerSplit(t *testing.T) {
	parallel.Configure(2, true)
	defer parallel.Configure(0, true)
	const h, ranks = 8, 2
	box, err := mesh.NewBox(4, 3, 3, 2, [3]bool{true, true, true})
	if err != nil {
		t.Fatal(err)
	}
	part, err := partition.NewCartesian(box, ranks, partition.Slabs)
	if err != nil {
		t.Fatal(err)
	}
	locals, err := graph.BuildAll(box, part)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		overlap  bool
		fwd, bwd uint64 // per rank
	}{{false, 4, 4}, {true, 5, 5}} {
		var fwd, bwd uint64
		err := comm.Run(ranks, func(c *comm.Comm) error {
			rc, err := NewRankContext(c, box, locals[c.Rank()], comm.NeighborAllToAll)
			if err != nil {
				return err
			}
			g := rc.Graph
			if g.NumBoundary == 0 || g.NumBoundary == g.NumLocal() {
				return fmt.Errorf("rank %d has %d boundary rows of %d: the split has an empty side", c.Rank(), g.NumBoundary, g.NumLocal())
			}
			layer := NewNMPLayer("t", h, 1, rand.New(rand.NewSource(5)))
			layer.Overlap = tc.overlap
			x, e := tensor.New(g.NumLocal(), h), tensor.New(g.NumEdges(), h)
			regions := func(op func()) uint64 {
				c.Barrier()
				before := parallel.Stats()
				c.Barrier()
				op()
				c.Barrier()
				after := parallel.Stats()
				c.Barrier()
				return after.Dispatched + after.Inline - before.Dispatched - before.Inline
			}
			var xOut, eOut *tensor.Matrix
			f := regions(func() { xOut, eOut = layer.Forward(rc, x, e) })
			b := regions(func() { layer.Backward(xOut, eOut) })
			if c.Rank() == 0 {
				fwd, bwd = f, b
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if fwd != ranks*tc.fwd || bwd != ranks*tc.bwd {
			t.Errorf("overlap=%v: %d forward and %d backward regions over %d ranks, want %d and %d",
				tc.overlap, fwd, bwd, ranks, ranks*tc.fwd, ranks*tc.bwd)
		}
	}
}

// TestOpsHoldOnePoolBracket: a prediction, a rollout and a training step
// each hold the worker pool's op bracket exactly once (parallel.Begin), as
// the pool's workers read it between the op's regions: at 2 threads a
// worker joins the op's regions from the poll (parallel.Counters.Polled),
// which it does only while exactly one bracket is open. An op that did not
// bracket, or a rollout whose steps opened a bracket of their own inside
// its one (a count of two), would leave Polled still; a bracket left open
// would silence the ops after it, so they run in sequence and the first
// runs again last. A rollout of S steps must be joined from the poll at
// least S times in one call: with nested brackets a worker can slip in at
// most once per gap between two steps, S−1 in all.
func TestOpsHoldOnePoolBracket(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("a worker polls beside the caller only with GOMAXPROCS >= 2")
	}
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
	const steps = 4
	err = comm.Run(1, func(c *comm.Comm) error {
		rc, err := NewRankContext(c, box, l, comm.NoExchange)
		if err != nil {
			return err
		}
		x := waveField(rc.Graph)
		model, err := NewModel(LargeConfig())
		if err != nil {
			return err
		}
		eng, err := NewInference(model)
		if err != nil {
			return err
		}
		tr := NewTrainer(model, nn.NewAdam(1e-3))
		predict := func() { eng.Predict(rc, x) }
		for _, op := range []struct {
			name string
			min  uint64 // regions joined from the poll in one call
			run  func()
		}{
			{"Predict", 1, predict},
			{"PredictBatch", 1, func() { eng.PredictBatch(rc, []*tensor.Matrix{x, x}) }},
			{"RolloutBatch", steps, func() { eng.RolloutBatch(rc, []*tensor.Matrix{x, x}, steps) }},
			{"StepBatch", 1, func() { tr.StepBatch(rc, []*tensor.Matrix{x}, []*tensor.Matrix{x}) }},
			{"Predict again", 1, predict},
		} {
			op.run() // warm: bind, record the arena
			var best uint64
			for try := 0; try < 20 && best < op.min; try++ {
				before := parallel.Stats().Polled
				op.run()
				best = max(best, parallel.Stats().Polled-before)
			}
			if best < op.min {
				t.Errorf("%s: at most %d regions of one call joined from the poll, want >= %d: the op does not hold exactly one bracket",
					op.name, best, op.min)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
