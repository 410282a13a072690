package gnn

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"

	"meshgnn/internal/comm"
	"meshgnn/internal/graph"
	"meshgnn/internal/mesh"
	"meshgnn/internal/nn"
	"meshgnn/internal/parallel"
	"meshgnn/internal/partition"
	"meshgnn/internal/tensor"
)

// inferenceParity evaluates the training model and the compiled engine on
// the same rank and returns the number of differing output bit patterns
// (repeated twice, so the second call exercises the arena replay and the
// cached static-edge encoding).
func inferenceParity(rc *RankContext, model *Model, eng *Inference, x *tensor.Matrix) (int, error) {
	diff := 0
	for pass := 0; pass < 2; pass++ {
		yM := model.Forward(rc, x).Clone()
		yE := eng.Predict(rc, x)
		if yM.Rows != yE.Rows || yM.Cols != yE.Cols {
			return 0, fmt.Errorf("shape mismatch: model %dx%d, engine %dx%d", yM.Rows, yM.Cols, yE.Rows, yE.Cols)
		}
		for i := range yM.Data {
			if math.Float64bits(yM.Data[i]) != math.Float64bits(yE.Data[i]) {
				diff++
			}
		}
	}
	return diff, nil
}

// TestInferenceBitwiseMatchesTrainForward is the headline parity sweep:
// engine predictions must be bitwise-equal to Model.Forward across
// {1,2,4 ranks} × {channel, socket} × {sync, overlap} × {1,4 threads}.
func TestInferenceBitwiseMatchesTrainForward(t *testing.T) {
	box, err := mesh.NewBox(4, 3, 3, 2, [3]bool{true, true, true})
	if err != nil {
		t.Fatal(err)
	}
	defer parallel.Configure(0, true)
	for _, ranks := range []int{1, 2, 4} {
		part, err := partition.NewCartesian(box, ranks, partition.Slabs)
		if err != nil {
			t.Fatal(err)
		}
		locals, err := graph.BuildAll(box, part)
		if err != nil {
			t.Fatal(err)
		}
		for _, sockets := range []bool{false, true} {
			for _, overlap := range []bool{false, true} {
				for _, threads := range []int{1, 4} {
					transport := "channel"
					if sockets {
						transport = "socket"
					}
					pipeline := "sync"
					if overlap {
						pipeline = "overlap"
					}
					name := fmt.Sprintf("R%d/%s/%s/t%d", ranks, transport, pipeline, threads)
					t.Run(name, func(t *testing.T) {
						parallel.Configure(threads, true)
						cfg := tinyConfig()
						cfg.Overlap = overlap
						body := func(c *comm.Comm) (int, error) {
							rc, err := NewRankContext(c, box, locals[c.Rank()], comm.NeighborAllToAll)
							if err != nil {
								return 0, err
							}
							model, err := NewModel(cfg)
							if err != nil {
								return 0, err
							}
							eng, err := NewInference(model)
							if err != nil {
								return 0, err
							}
							return inferenceParity(rc, model, eng, waveField(rc.Graph))
						}
						var res []int
						if sockets {
							res, err = comm.RunSocketsCollect(ranks, body)
						} else {
							res, err = comm.RunCollect(ranks, body)
						}
						if err != nil {
							t.Fatal(err)
						}
						for r, d := range res {
							if d != 0 {
								t.Errorf("rank %d: %d prediction values differ bitwise from Model.Forward", r, d)
							}
						}
					})
				}
			}
		}
	}
}

// TestInferenceGoldenForward pins the fused inference path against the
// checked-in golden file: the first golden loss is the consistent loss of
// the seeded small model's very first forward (before any optimizer
// step), so the engine evaluating the same configuration must reproduce
// that bit pattern exactly. Kernel drift in the compiled twins surfaces
// here as an explicit diff against testdata/golden_losses.txt.
func TestInferenceGoldenForward(t *testing.T) {
	raw, err := os.ReadFile(goldenLossPath)
	if err != nil {
		t.Fatalf("missing golden file (run TestGoldenLossesBitwise -update to create): %v", err)
	}
	var first uint64
	for _, line := range strings.Split(string(raw), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		first, err = strconv.ParseUint(strings.Fields(line)[0], 16, 64)
		if err != nil {
			t.Fatalf("corrupt golden line %q: %v", line, err)
		}
		break
	}

	parallel.Configure(1, true)
	defer parallel.Configure(0, true)
	box, err := mesh.NewBox(3, 3, 3, 2, [3]bool{true, true, true})
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
		cfg := SmallConfig()
		cfg.Overlap = overlap
		res, err := comm.RunCollect(2, func(c *comm.Comm) (float64, error) {
			rc, err := NewRankContext(c, box, locals[c.Rank()], comm.NeighborAllToAll)
			if err != nil {
				return 0, err
			}
			model, err := NewModel(cfg)
			if err != nil {
				return 0, err
			}
			eng, err := NewInference(model)
			if err != nil {
				return 0, err
			}
			x := waveField(rc.Graph)
			y := eng.Predict(rc, x)
			var l ConsistentMSE
			return l.Forward(rc, y, x), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if bits := math.Float64bits(res[0]); bits != first {
			t.Errorf("overlap=%v: engine forward loss %.17g (%016x) != golden first step %016x — "+
				"the fused inference path drifted from the training kernels", overlap, res[0], bits, first)
		}
	}
}

// TestInferenceStepZeroAlloc is the single-rank serving gate: after the
// binding pass, a Predict call performs zero heap allocations — strictly.
func TestInferenceStepZeroAlloc(t *testing.T) {
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
		model, err := NewModel(SmallConfig())
		if err != nil {
			return err
		}
		eng, err := NewInference(model)
		if err != nil {
			return err
		}
		x := waveField(rc.Graph)
		eng.Predict(rc, x) // bind: record the arena, encode static edges
		eng.Predict(rc, x)
		if n := testing.AllocsPerRun(5, func() { eng.Predict(rc, x) }); n != 0 {
			t.Errorf("inference step allocates %v times in steady state", n)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestInferenceZeroAllocMultiRank extends the serving allocation gate to
// real two-rank halo traffic on both transports with the synchronous and
// the overlapped pipeline, mirroring TestTrainStepZeroAllocMultiRank: a
// long GC-quiesced window with unmeasured absorb batches, asserted below
// one allocation per predict (strict zero is the single-rank gate's job;
// the concurrent window tolerates bounded scheduler-coincidence pool
// one-offs).
func TestInferenceZeroAllocMultiRank(t *testing.T) {
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
				rc, err := NewRankContext(c, box, locals[c.Rank()], comm.NeighborAllToAll)
				if err != nil {
					return err
				}
				model, err := NewModel(cfg)
				if err != nil {
					return err
				}
				eng, err := NewInference(model)
				if err != nil {
					return err
				}
				x := waveField(rc.Graph)
				step := func() { eng.Predict(rc, x) }
				for i := 0; i < warmups/2; i++ {
					step()
				}
				runtime.GC()
				runtime.GC()
				for i := 0; i < warmups-warmups/2; i++ {
					step()
				}
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
				if n >= 1 {
					t.Errorf("%s inference step allocates %v times per step in steady state", tc.name, n)
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

// TestInferenceRolloutBitwiseMatchesModel asserts a multi-step engine
// rollout reproduces the training model's rollout bit for bit, on a real
// two-rank partition with the overlapped pipeline on the engine side
// (overlap is bitwise-invisible, so the sides may disagree on it).
func TestInferenceRolloutBitwiseMatchesModel(t *testing.T) {
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
	const steps = 5
	err = comm.Run(2, func(c *comm.Comm) error {
		rc, err := NewRankContext(c, box, locals[c.Rank()], comm.NeighborAllToAll)
		if err != nil {
			return err
		}
		cfg := tinyConfig()
		cfg.Overlap = true
		model, err := NewModel(cfg)
		if err != nil {
			return err
		}
		eng, err := NewInference(model)
		if err != nil {
			return err
		}
		model.SetOverlap(false)
		x0 := waveField(rc.Graph)
		want := Rollout(model, rc, x0, steps)
		got := eng.Rollout(rc, x0, steps)
		if len(want) != len(got) {
			t.Fatalf("rollout lengths differ: model %d, engine %d", len(want), len(got))
		}
		for s := range want {
			for i := range want[s].Data {
				if math.Float64bits(want[s].Data[i]) != math.Float64bits(got[s].Data[i]) {
					t.Fatalf("rollout step %d value %d: model %v != engine %v",
						s, i, want[s].Data[i], got[s].Data[i])
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestInferenceCheckpointRoundTrip asserts checkpoint → engine →
// checkpoint is the identity on parameters: compiling and serving from a
// restored model leaves its checkpoint byte-identical, and the engine
// serves the trained parameters bitwise.
func TestInferenceCheckpointRoundTrip(t *testing.T) {
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
		tr := NewTrainer(model, nn.NewAdam(1e-3))
		x := waveField(rc.Graph)
		for i := 0; i < 3; i++ {
			tr.Step(rc, x, x)
		}
		var ckpt bytes.Buffer
		if err := SaveModel(&ckpt, model); err != nil {
			return err
		}
		before := append([]byte(nil), ckpt.Bytes()...)

		restored, err := LoadModel(bytes.NewReader(before))
		if err != nil {
			return err
		}
		eng, err := NewInference(restored)
		if err != nil {
			return err
		}
		yWant := model.Forward(rc, x).Clone()
		yGot := eng.Predict(rc, x)
		for i := range yWant.Data {
			if math.Float64bits(yWant.Data[i]) != math.Float64bits(yGot.Data[i]) {
				t.Fatalf("value %d: trained model %v != engine-from-checkpoint %v",
					i, yWant.Data[i], yGot.Data[i])
			}
		}
		eng.Rollout(rc, x, 2)

		var after bytes.Buffer
		if err := SaveModel(&after, restored); err != nil {
			return err
		}
		if !bytes.Equal(before, after.Bytes()) {
			t.Error("checkpoint→engine→checkpoint round trip altered the serialized parameters")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestInferenceRefreshTracksTraining pins how a served engine follows
// training: an engine is a snapshot, so refreshing it is compiling a new
// one, and after every further training step a fresh NewInference —
// static-edge encoding bound anew — predicts the updated model bitwise.
func TestInferenceRefreshTracksTraining(t *testing.T) {
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
		eng, err := NewInference(model)
		if err != nil {
			return err
		}
		x := waveField(rc.Graph)
		eng.Predict(rc, x) // bind against the initial parameters

		tr := NewTrainer(model, nn.NewAdam(1e-2))
		for step := 0; step < 2; step++ {
			tr.Step(rc, x, x)
			if eng, err = NewInference(model); err != nil {
				return err
			}
			yWant := model.Forward(rc, x).Clone()
			yGot := eng.Predict(rc, x)
			for i := range yWant.Data {
				if math.Float64bits(yWant.Data[i]) != math.Float64bits(yGot.Data[i]) {
					return fmt.Errorf("step %d, value %d after recompiling: model %v != engine %v", step, i, yWant.Data[i], yGot.Data[i])
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestInferenceIsASnapshot pins the compile contract at both precisions: an
// engine is a snapshot of the model's parameters as compiled, so training
// the source model afterwards — even while a session of the engine serves —
// moves no bit the engine or any Session of it predicts, and serving the
// new parameters takes a fresh NewInference, which at Float64 is bitwise
// the updated Model.Forward. At width H = 32 the core's weights are read
// where they lie, and the default static edge features give it a cached
// edge encoding: both must be copies, not views. Under
// -race the session predicts concurrently with the trainer's steps.
func TestInferenceIsASnapshot(t *testing.T) {
	for _, prec := range precisions {
		t.Run(precName(prec), func(t *testing.T) { snapshotContract(t, prec) })
	}
}

func snapshotContract(t *testing.T, prec Precision) {
	box, l := allocSetup(t)
	cfg := tinyConfig()
	cfg.HiddenDim = 32
	cfg.Precision = prec
	err := comm.Run(1, func(c *comm.Comm) error {
		rc, err := NewRankContext(c, box, l, comm.NoExchange)
		if err != nil {
			return err
		}
		// The session serves on a context of its own: an exchanger is
		// single-goroutine state, and without halos the session never
		// touches the communicator the trainer reduces over.
		rcServe, err := NewRankContext(c, box, l, comm.NoExchange)
		if err != nil {
			return err
		}
		model, err := NewModel(cfg)
		if err != nil {
			return err
		}
		eng, err := NewInference(model)
		if err != nil {
			return err
		}
		x := waveField(l)
		want := eng.Predict(rc, x).Clone() // binds, and caches the static edges
		ses := eng.Session()
		if d := bitDiff(want, ses.Predict(rcServe, x)); d != 0 {
			return fmt.Errorf("fresh session differs from its engine in %d values", d)
		}

		started, stop := make(chan struct{}), make(chan struct{})
		served := make(chan int)
		go func() {
			close(started)
			worst := 0
			for {
				select {
				case <-stop:
					served <- worst
					return
				default:
				}
				worst = max(worst, bitDiff(want, ses.Predict(rcServe, x)))
			}
		}()
		<-started
		tr := NewTrainer(model, nn.NewAdam(1e-2))
		for i := 0; i < 3; i++ {
			tr.Step(rc, x, x)
		}
		close(stop)
		if d := <-served; d != 0 {
			return fmt.Errorf("session predicting while the model trained differs in %d values", d)
		}

		if d := bitDiff(want, eng.Predict(rc, x)); d != 0 {
			return fmt.Errorf("engine after training its source differs in %d values", d)
		}
		if d := bitDiff(want, ses.Predict(rcServe, x)); d != 0 {
			return fmt.Errorf("session after training its source differs in %d values", d)
		}
		fresh, err := NewInference(model)
		if err != nil {
			return err
		}
		got := fresh.Predict(rc, x)
		if bitDiff(want, got) == 0 {
			return fmt.Errorf("training moved no prediction bit: the test proves nothing")
		}
		if prec == Float64 {
			if d := bitDiff(model.Forward(rc, x), got); d != 0 {
				return fmt.Errorf("recompiled engine differs from the trained Model.Forward in %d values", d)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
