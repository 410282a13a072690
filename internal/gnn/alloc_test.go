package gnn

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"meshgnn/internal/comm"
	"meshgnn/internal/graph"
	"meshgnn/internal/mesh"
	"meshgnn/internal/nn"
	"meshgnn/internal/parallel"
	"meshgnn/internal/partition"
	"meshgnn/internal/tensor"
)

// allocSetup builds a single-rank periodic sub-graph large enough to
// exercise every kernel path.
func allocSetup(t *testing.T) (*mesh.Box, *graph.Local) {
	t.Helper()
	box, err := mesh.NewBox(3, 3, 3, 2, [3]bool{true, true, true})
	if err != nil {
		t.Fatal(err)
	}
	l, err := graph.BuildSingle(box)
	if err != nil {
		t.Fatal(err)
	}
	return box, l
}

// TestNMPLayerZeroAllocSteadyState asserts a full NMP layer
// forward+backward allocates nothing once its arena is recorded.
func TestNMPLayerZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	parallel.Configure(1, true)
	defer parallel.Configure(0, true)
	box, l := allocSetup(t)
	err := comm.Run(1, func(c *comm.Comm) error {
		rc, err := NewRankContext(c, box, l, comm.NoExchange)
		if err != nil {
			return err
		}
		const hidden = 8
		rng := rand.New(rand.NewSource(3))
		layer := NewNMPLayer("t", hidden, 1, rng)
		arena := tensor.NewArena()
		layer.SetArena(arena)
		x := tensor.New(l.NumLocal(), hidden)
		e := tensor.New(l.NumEdges(), hidden)
		for i := range x.Data {
			x.Data[i] = rng.NormFloat64()
		}
		for i := range e.Data {
			e.Data[i] = rng.NormFloat64()
		}
		params := layer.Params() // cached, as the trainer does
		step := func() {
			arena.Reset()
			nn.ZeroGrads(params)
			xo, eo := layer.Forward(rc, x, e)
			layer.Backward(xo, eo)
		}
		step() // record
		if n := testing.AllocsPerRun(5, step); n != 0 {
			t.Errorf("NMP layer step allocates %v times in steady state", n)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTrainStepZeroAllocSteadyState is the acceptance assertion: after a
// warm-up step, a full training step (forward, consistent loss, backward,
// gradient AllReduce, optimizer) performs zero heap allocations in the
// tensor/nn/gnn hot path at R=1. So does a cycle that alternates a
// StepBatch of three with a Step — an epoch of Fit with a short tail: the
// re-bind between them is an arena re-record over kept slabs and headers,
// and the static-edge tile and the loss buffers are grow-only.
func TestTrainStepZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	parallel.Configure(1, true)
	defer parallel.Configure(0, true)
	box, l := allocSetup(t)
	for _, opt := range []struct {
		name  string
		build func() nn.Optimizer
	}{
		{"sgd", func() nn.Optimizer { return nn.NewSGD(0.01) }},
		{"adam", func() nn.Optimizer { return nn.NewAdam(1e-3) }},
	} {
		t.Run(opt.name, func(t *testing.T) {
			err := comm.Run(1, func(c *comm.Comm) error {
				rc, err := NewRankContext(c, box, l, comm.NoExchange)
				if err != nil {
					return err
				}
				model, err := NewModel(SmallConfig())
				if err != nil {
					return err
				}
				tr := NewTrainer(model, opt.build())
				x := waveField(rc.Graph)
				// Warm-up: records the arena sequence, sizes gradient
				// and optimizer buffers, populates kernel task pools.
				tr.Step(rc, x, x)
				tr.Step(rc, x, x)
				if n := testing.AllocsPerRun(5, func() { tr.Step(rc, x, x) }); n != 0 {
					t.Errorf("train step allocates %v times in steady state", n)
				}
				xs := batchInputs(rc.Graph, 3)
				cycle := func() {
					tr.StepBatch(rc, xs, xs)
					tr.Step(rc, x, x)
				}
				cycle()
				if n := testing.AllocsPerRun(5, cycle); n != 0 {
					t.Errorf("an alternating StepBatch(3)/Step cycle allocates %v times", n)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestTrainStepZeroAllocMultiRank extends the zero-allocation gate to
// real two-rank traffic on both transports, with the synchronous and the
// overlapped halo pipeline: halo exchanges and the gradient AllReduce
// cross the fabric every step, and the steady-state step must still
// perform zero heap allocations. The framed staging buffers, the
// per-pair payload pools (channel fabric), the per-peer free lists
// (socket fabric), and the pooled nonblocking Request handles keep the
// comm layer out of the allocator, so the tensor/nn/gnn hot path stays 0
// allocs/op with either transport and either pipeline.
func TestTrainStepZeroAllocMultiRank(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	parallel.Configure(1, true)
	defer parallel.Configure(0, true)
	box, err := mesh.NewBox(4, 3, 3, 2, [3]bool{true, true, true})
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
	// Rank 0 measures; rank 1 steps in lockstep (the collectives inside
	// Step synchronize the pair), steered through a continue/stop flag so
	// both ranks execute the same number of steps per batch. AllocsPerRun
	// reads global allocation counters, so rank 1's steps and both ranks'
	// socket readers are inside the measurement too. Warm-up also
	// saturates the per-pair payload pools: a rank may post its next send
	// before the peer has recycled the previous payload (the window
	// depends on scheduling), and each such miss permanently grows the
	// circulating buffer set until no get can miss again.
	const warmups, measured = 4, 40
	for _, tc := range []struct {
		name    string
		sockets bool
		overlap bool
	}{
		{"channel/sync", false, false},
		{"channel/overlap", false, true},
		{"socket/sync", true, false},
		{"socket/overlap", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := SmallConfig()
			cfg.Overlap = tc.overlap
			body := func(c *comm.Comm) error {
				rc, err := NewRankContext(c, box, locals[c.Rank()], comm.SendRecvMode)
				if err != nil {
					return err
				}
				model, err := NewModel(cfg)
				if err != nil {
					return err
				}
				tr := NewTrainer(model, nn.NewAdam(1e-3))
				x := waveField(rc.Graph)
				step := func() { tr.Step(rc, x, x) }
				// First warm-up half: record arenas, size buffers, grow
				// the comm pools.
				for i := 0; i < warmups/2; i++ {
					step()
				}
				// Collect the setup garbage between the warm-up halves
				// (both collective steps run it so the pair stays in
				// lockstep); the second half then re-populates what the
				// cycle cleared.
				runtime.GC()
				runtime.GC()
				for i := 0; i < warmups-warmups/2; i++ {
					step()
				}
				// Rank 0 steers rank 1 through a continue/stop flag so
				// the pair stays in lockstep through the absorb batches
				// and the measured batch. The two unmeasured absorb
				// batches soak up payload-pool stragglers: a rank can
				// post a send before its peer recycled the previous
				// buffer (the window depends on goroutine scheduling),
				// and each such miss permanently grows the circulating
				// buffer set, so stragglers die out while a genuine
				// per-step leak keeps allocating into the measured
				// batch, which must be exactly zero.
				if c.Rank() != 0 {
					for {
						if flag := c.Recv(0, comm.TagUser); flag[0] == 0 {
							return nil
						}
						for i := 0; i < measured; i++ {
							step()
						}
					}
				}
				// Disable the collector across the absorb batches and the
				// measured batch (it is restored below): a GC cycle clears
				// the sync.Pool caches behind the parallel dispatch and the
				// runtime, and their refill would be billed to the steady
				// state. The single forced collection up front flushes the
				// setup garbage; after it, the absorb batches rebuild every
				// pool population (including the worst-case concurrent
				// peaks two interleaved ranks can demand) and nothing can
				// wipe them again before the measurement. The whole GC-off
				// region is a few dozen tiny-model steps, so heap growth is
				// negligible.
				gcPercent := debug.SetGCPercent(-1)
				runtime.GC()
				for absorb := 0; absorb < 2; absorb++ {
					c.Send(1, comm.TagUser, []float64{1})
					for i := 0; i < measured; i++ {
						step()
					}
				}
				c.Send(1, comm.TagUser, []float64{1})
				n := testing.AllocsPerRun(measured-1, step)
				debug.SetGCPercent(gcPercent)
				c.Send(1, comm.TagUser, []float64{0})
				// Strictly-zero is asserted by the single-rank gates
				// (TestTrainStepZeroAllocSteadyState,
				// TestStepBatchSteadyStateZeroAlloc); here two
				// rank goroutines interleave on shared cores, and an
				// unlucky preemption mid-kernel can make the measured
				// window the first to see a transient concurrent demand
				// peak in a shared pool (dispatch buffers, runtime
				// internals) — a bounded one-off, not a leak. Amortized
				// over the long window such one-offs stay well below one
				// per step, while any systematic per-step allocation in
				// the comm or compute hot path shows up as n >= 1.
				if n >= 1 {
					t.Errorf("%s train step allocates %v times per step in steady state", tc.name, n)
				}
				return nil
			}
			if tc.sockets {
				err = comm.RunSockets(2, body)
			} else {
				err = comm.Run(2, body)
			}
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestModelArenaReusedAcrossSteps asserts repeated Forward calls replay
// the same workspace (stable footprint) and that a shape change re-records
// instead of panicking.
func TestModelArenaReusedAcrossSteps(t *testing.T) {
	box, l := allocSetup(t)
	err := comm.Run(1, func(c *comm.Comm) error {
		rc, err := NewRankContext(c, box, l, comm.NoExchange)
		if err != nil {
			return err
		}
		model, err := NewModel(tinyConfig())
		if err != nil {
			return err
		}
		x := waveField(rc.Graph)
		model.Forward(rc, x)
		foot := model.WorkspaceFootprint()
		if foot == 0 {
			t.Error("arena not in use")
		}
		for i := 0; i < 3; i++ {
			model.Forward(rc, x)
		}
		if got := model.WorkspaceFootprint(); got != foot {
			t.Errorf("footprint grew across identical steps: %d -> %d", foot, got)
		}

		// A different sub-graph re-records the arena transparently.
		box2, err := mesh.NewBox(2, 2, 2, 2, [3]bool{})
		if err != nil {
			return err
		}
		l2, err := graph.BuildSingle(box2)
		if err != nil {
			return err
		}
		rc2, err := NewRankContext(c, box2, l2, comm.NoExchange)
		if err != nil {
			return err
		}
		model.Forward(rc2, waveField(rc2.Graph))
		model.Forward(rc, x) // and back again
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestForwardOutputStableUntilNextForward pins the output-buffer contract:
// the returned prediction is a model-owned copy, unchanged by backward
// passes, and recomputing with the same input reproduces it bitwise.
func TestForwardOutputStableUntilNextForward(t *testing.T) {
	box, l := allocSetup(t)
	err := comm.Run(1, func(c *comm.Comm) error {
		rc, err := NewRankContext(c, box, l, comm.NoExchange)
		if err != nil {
			return err
		}
		model, err := NewModel(tinyConfig())
		if err != nil {
			return err
		}
		x := waveField(rc.Graph)
		y1 := model.Forward(rc, x).Clone()
		y2 := model.Forward(rc, x)
		if !y1.Equal(y2) {
			t.Error("repeated forward with identical input is not bitwise stable")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPushforwardStepMatchesClonedInput guards the double-buffered output
// contract: feeding the model's own prediction back in as the input and
// target of a full training step must behave exactly as if the caller had
// cloned it first (the returned buffer survives one subsequent Forward).
func TestPushforwardStepMatchesClonedInput(t *testing.T) {
	box, l := allocSetup(t)
	err := comm.Run(1, func(c *comm.Comm) error {
		rc, err := NewRankContext(c, box, l, comm.NoExchange)
		if err != nil {
			return err
		}
		run := func(clone bool) ([]float64, float64) {
			model, err := NewModel(tinyConfig())
			if err != nil {
				t.Fatal(err)
			}
			tr := NewTrainer(model, nn.NewSGD(0.01))
			y := model.Forward(rc, waveField(rc.Graph))
			if clone {
				y = y.Clone()
			}
			loss := tr.Step(rc, y, y) // pushforward: prediction as input and target
			flat := nn.FlattenGrads(model.Params(), nil)
			return flat, loss
		}
		gradsAliased, lossAliased := run(false)
		gradsCloned, lossCloned := run(true)
		if lossAliased != lossCloned {
			t.Errorf("pushforward loss %v differs from cloned-input loss %v", lossAliased, lossCloned)
		}
		for i := range gradsCloned {
			if gradsAliased[i] != gradsCloned[i] {
				t.Fatalf("pushforward gradient %d differs: %v vs %v", i, gradsAliased[i], gradsCloned[i])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
