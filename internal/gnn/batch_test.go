package gnn

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"meshgnn/internal/comm"
	"meshgnn/internal/graph"
	"meshgnn/internal/mesh"
	"meshgnn/internal/parallel"
	"meshgnn/internal/partition"
	"meshgnn/internal/tensor"
)

// batchInputs derives B distinct deterministic snapshots from the rank's
// wave field. The perturbation depends only on the sample index and the
// row/column position, so every rank sees consistent fields.
func batchInputs(g *graph.Local, batch int) []*tensor.Matrix {
	xs := make([]*tensor.Matrix, batch)
	base := waveField(g)
	for b := range xs {
		x := base.Clone()
		for i := range x.Data {
			x.Data[i] += 0.05 * math.Sin(float64(b+1)*1.7+float64(i)*0.13)
		}
		xs[b] = x
	}
	return xs
}

// bitDiff counts differing float64 bit patterns between two matrices.
func bitDiff(a, b *tensor.Matrix) int {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return a.Rows*a.Cols + b.Rows*b.Cols
	}
	d := 0
	for i := range a.Data {
		if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
			d++
		}
	}
	return d
}

// batchParity runs sequential Predicts and one PredictBatch on the same
// engine and returns the total number of differing output bit patterns.
// Two passes exercise the batched arena replay after the binding pass.
func batchParity(rc *RankContext, eng *Inference, xs []*tensor.Matrix) int {
	diff := 0
	for pass := 0; pass < 2; pass++ {
		seq := make([]*tensor.Matrix, len(xs))
		for i, x := range xs {
			seq[i] = eng.Predict(rc, x).Clone()
		}
		outs := eng.PredictBatch(rc, xs)
		for i := range xs {
			diff += bitDiff(seq[i], outs[i])
		}
	}
	return diff
}

// precisions is the element-type axis of the stacked-pass sweeps: the
// float32 engine stacks like the float64 one, and its stacked answer must
// equal its own per-sample answer bit for bit (it is the float64 engine it
// only approximates).
var precisions = []Precision{Float64, Float32}

func precName(p Precision) string {
	if p == Float32 {
		return "f32"
	}
	return "f64"
}

// precisionConfig is tinyConfig at Float64 and, at Float32, f32Config —
// widened so the processor GEMMs take whole and partial panels.
func precisionConfig(p Precision) Config {
	if p == Float32 {
		return f32Config()
	}
	return tinyConfig()
}

// TestPredictBatchBitwiseParitySweep is the stacked pass's headline gate:
// per-sample PredictBatch output must be bitwise-identical to sequential
// Predict across {Float64, Float32} × {1,2,4 ranks} × {channel, socket} ×
// {sync, overlap} × {B=1,3,8}.
func TestPredictBatchBitwiseParitySweep(t *testing.T) {
	box, err := mesh.NewBox(4, 3, 3, 2, [3]bool{true, true, true})
	if err != nil {
		t.Fatal(err)
	}
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
				for _, batch := range []int{1, 3, 8} {
					for _, prec := range precisions {
						transport := "channel"
						if sockets {
							transport = "socket"
						}
						pipeline := "sync"
						if overlap {
							pipeline = "overlap"
						}
						name := fmt.Sprintf("%s/R%d/%s/%s/B%d", precName(prec), ranks, transport, pipeline, batch)
						t.Run(name, func(t *testing.T) {
							cfg := precisionConfig(prec)
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
								return batchParity(rc, eng, batchInputs(rc.Graph, batch)), nil
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
									t.Errorf("rank %d: %d batched prediction values differ bitwise from sequential Predict", r, d)
								}
							}
						})
					}
				}
			}
		}
	}
}

// TestPredictBatchAllExchangeModes covers the four halo exchange modes at
// both precisions with a thread sweep (subtests keep the edge4 label of the
// 4-column edge input): the batched frames must not change a bit under any
// packing/collective spelling.
func TestPredictBatchAllExchangeModes(t *testing.T) {
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
	defer parallel.Configure(0, true)
	for _, mode := range []comm.ExchangeMode{comm.NoExchange, comm.AllToAllMode, comm.NeighborAllToAll} {
		for _, threads := range []int{1, 4} {
			for _, prec := range precisions {
				t.Run(fmt.Sprintf("%s/%v/edge4/t%d", precName(prec), mode, threads), func(t *testing.T) {
					parallel.Configure(threads, true)
					cfg := precisionConfig(prec)
					res, err := comm.RunCollect(2, func(c *comm.Comm) (int, error) {
						rc, err := NewRankContext(c, box, locals[c.Rank()], mode)
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
						return batchParity(rc, eng, batchInputs(rc.Graph, 3)), nil
					})
					if err != nil {
						t.Fatal(err)
					}
					for r, d := range res {
						if d != 0 {
							t.Errorf("rank %d: %d values differ bitwise", r, d)
						}
					}
				})
			}
		}
	}
}

// TestRolloutBatchMatchesSequentialRollout checks the autoregressive
// batched path at both precisions: per-sample trajectories bitwise-equal
// to e.Rollout, and every trajectory entry an independent copy.
func TestRolloutBatchMatchesSequentialRollout(t *testing.T) {
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
	const batch, steps = 3, 3
	for _, prec := range precisions {
		err = comm.Run(2, func(c *comm.Comm) error {
			rc, err := NewRankContext(c, box, locals[c.Rank()], comm.NeighborAllToAll)
			if err != nil {
				return err
			}
			model, err := NewModel(precisionConfig(prec))
			if err != nil {
				return err
			}
			eng, err := NewInference(model)
			if err != nil {
				return err
			}
			xs := batchInputs(rc.Graph, batch)
			seq := make([][]*tensor.Matrix, batch)
			for i, x := range xs {
				seq[i] = eng.Rollout(rc, x, steps)
			}
			trajs := eng.RolloutBatch(rc, xs, steps)
			for i := range xs {
				if len(trajs[i]) != steps+1 {
					return fmt.Errorf("sample %d: trajectory length %d, want %d", i, len(trajs[i]), steps+1)
				}
				for s := range trajs[i] {
					if d := bitDiff(seq[i][s], trajs[i][s]); d != 0 {
						return fmt.Errorf("sample %d step %d: %d values differ bitwise", i, s, d)
					}
				}
			}
			// Independence: scribbling on one entry must not reach any other.
			trajs[0][1].Data[0] = 1e300
			if trajs[1][1].Data[0] == 1e300 || trajs[0][2].Data[0] == 1e300 {
				return fmt.Errorf("trajectory entries alias each other")
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", precName(prec), err)
		}
	}
}

// nilEdgeEncoder takes the compiled edge encoder away from the engine's
// core: from here on, anything that encodes the static edges again — where
// it should view the copies it has — dereferences nil.
func nilEdgeEncoder(e *Inference) {
	if e.p32 != nil {
		e.p32.core.edgeEnc = nil
	} else {
		e.p64.core.edgeEnc = nil
	}
}

// rebindCheck drives one engine through B = 1 → 8 → 3 → 1 → 8 with the
// edge encoder taken away after the first bind. Every step must match a
// standalone engine's per-sample Predict bitwise (Predict is PredictBatch
// of one, so step B = 1 goes through Predict); a change of batch size must
// tile the static-edge encoding from the copies the session holds instead
// of encoding the edge set again; and after the first B = 8 the arenas
// hold the largest shape, so WorkspaceFootprint must not move again. With
// strict (one rank, one thread) a steady cycle of {Predict,
// PredictBatch(8), PredictBatch(3)} — the batch size changes on every call
// — must then allocate nothing: Clear keeps slabs and headers, and the
// tile, the wire staging and the output buffers are grow-only.
func rebindCheck(rc *RankContext, cfg Config, strict bool) error {
	model, err := NewModel(cfg)
	if err != nil {
		return err
	}
	eng, err := NewInference(model)
	if err != nil {
		return err
	}
	ref, err := NewInference(model)
	if err != nil {
		return err
	}
	all := batchInputs(rc.Graph, 8)
	want := make([]*tensor.Matrix, len(all))
	for i, x := range all {
		want[i] = ref.Predict(rc, x).Clone()
	}
	serve := func(batch int) []*tensor.Matrix {
		if batch == 1 {
			return []*tensor.Matrix{eng.Predict(rc, all[0])}
		}
		return eng.PredictBatch(rc, all[:batch])
	}
	foot := 0
	for step, batch := range []int{1, 8, 3, 1, 8} {
		for pass := 0; pass < 2; pass++ { // the second pass replays the record
			for i, y := range serve(batch) {
				if d := bitDiff(want[i], y); d != 0 {
					return fmt.Errorf("step %d (B=%d) sample %d: %d values differ bitwise from a standalone Predict", step, batch, i, d)
				}
			}
		}
		switch got := eng.WorkspaceFootprint(); {
		case step == 0:
			nilEdgeEncoder(eng)
		case step == 1:
			foot = got
		case got != foot:
			return fmt.Errorf("step %d (B=%d): footprint %d, was %d after the first B=8", step, batch, got, foot)
		}
	}
	if !strict {
		return nil
	}
	cycle := func() {
		eng.Predict(rc, all[0])
		eng.PredictBatch(rc, all)
		eng.PredictBatch(rc, all[:3])
	}
	cycle() // both output buffers have now held every size
	cycle()
	if n := testing.AllocsPerRun(5, cycle); n != 0 {
		return fmt.Errorf("a steady {Predict, PredictBatch(8), PredictBatch(3)} cycle allocates %v times", n)
	}
	if got := eng.WorkspaceFootprint(); got != foot {
		return fmt.Errorf("footprint %d after the cycles, was %d after the first B=8", got, foot)
	}
	return nil
}

// TestPredictBatchRebind: see rebindCheck. Two ranks over a real exchange
// put the batch-sized wire staging under the batch-size changes; the
// single-rank, single-thread run adds the strict allocation gate.
func TestPredictBatchRebind(t *testing.T) {
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
	single, err := graph.BuildSingle(box)
	if err != nil {
		t.Fatal(err)
	}
	for _, prec := range precisions {
		t.Run(precName(prec)+"/R2", func(t *testing.T) {
			err := comm.Run(2, func(c *comm.Comm) error {
				rc, err := NewRankContext(c, box, locals[c.Rank()], comm.NeighborAllToAll)
				if err != nil {
					return err
				}
				return rebindCheck(rc, precisionConfig(prec), false)
			})
			if err != nil {
				t.Fatal(err)
			}
		})
		t.Run(precName(prec)+"/R1", func(t *testing.T) {
			parallel.Configure(1, true)
			defer parallel.Configure(0, true)
			err := comm.Run(1, func(c *comm.Comm) error {
				rc, err := NewRankContext(c, box, single, comm.NoExchange)
				if err != nil {
					return err
				}
				return rebindCheck(rc, precisionConfig(prec), !raceEnabled)
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPredictBatchRefusesForeignMesh pins the same-mesh rule of a batch.
// A batch is B row blocks of the one graph bound through one RankContext:
// splitBlock and runBlocks cut the stack at one per-sample length n, and
// every gather, scatter and halo frame indexes block b at b·n. A member
// snapshot of another mesh would need per-block graph offsets in every
// task, so PredictBatch and the training forward refuse it with a panic
// instead of evaluating it against the wrong graph.
func TestPredictBatchRefusesForeignMesh(t *testing.T) {
	box, l := allocSetup(t)
	other, err := mesh.NewBox(4, 3, 3, 2, [3]bool{true, true, true})
	if err != nil {
		t.Fatal(err)
	}
	foreign, err := graph.BuildSingle(other)
	if err != nil {
		t.Fatal(err)
	}
	err = comm.Run(1, func(c *comm.Comm) error {
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
		xs := batchInputs(rc.Graph, 3)
		xs[1] = waveField(foreign)
		if xs[1].Rows == rc.Graph.NumLocal() {
			return fmt.Errorf("foreign mesh has the bound graph's %d rows", xs[1].Rows)
		}
		if msg := panicMessage(func() { eng.PredictBatch(rc, xs) }); !strings.Contains(msg, "inference input") {
			return fmt.Errorf("PredictBatch with a foreign-mesh member: panic %q, want an inference input panic", msg)
		}
		if msg := panicMessage(func() { model.forward(rc, xs) }); !strings.Contains(msg, "gnn: input") {
			return fmt.Errorf("Model.forward with a foreign-mesh member: panic %q, want an input panic", msg)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// panicMessage runs f and returns what it panicked with, formatted ("" if
// it returned).
func panicMessage(f func()) (msg string) {
	defer func() {
		if p := recover(); p != nil {
			msg = fmt.Sprint(p)
		}
	}()
	f()
	return ""
}

// TestPredictBatchOutputLifetimeContract pins the documented double-buffer
// lifetime, which Predict and PredictBatch share because they share the
// buffers: a result stays bitwise-intact through exactly ONE subsequent
// engine call of EITHER kind and any batch size, consecutive calls hand
// out distinct backing buffers, and RolloutBatch trajectories (steps >= 3,
// so the internal buffer flips several times within one call) are
// independent clones that survive arbitrary later calls.
func TestPredictBatchOutputLifetimeContract(t *testing.T) {
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
	err = comm.Run(2, func(c *comm.Comm) error {
		rc, err := NewRankContext(c, box, locals[c.Rank()], comm.NeighborAllToAll)
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
		all := batchInputs(rc.Graph, 8)
		// Every ordered pair of call kinds, growing and shrinking batches
		// included: the first call's results must survive the second.
		calls := []struct {
			name string
			run  func() []*tensor.Matrix
		}{
			{"Predict", func() []*tensor.Matrix { return []*tensor.Matrix{eng.Predict(rc, all[7])} }},
			{"PredictBatch(3)", func() []*tensor.Matrix { return eng.PredictBatch(rc, all[:3]) }},
			{"PredictBatch(5)", func() []*tensor.Matrix { return eng.PredictBatch(rc, all[3:]) }},
		}
		for _, first := range calls {
			for _, second := range calls {
				out1 := first.run()
				keep := make([]*tensor.Matrix, len(out1))
				for i, o := range out1 {
					keep[i] = o.Clone()
				}
				out2 := second.run() // the ONE subsequent call
				for i := range out1 {
					if d := bitDiff(keep[i], out1[i]); d != 0 {
						return fmt.Errorf("%s then %s: sample %d: %d values clobbered by one subsequent call",
							first.name, second.name, i, d)
					}
				}
				// Distinct backing: the second call must not hand back the
				// buffer the first call's results still live in.
				if &out1[0].Data[0] == &out2[0].Data[0] {
					return fmt.Errorf("%s then %s: consecutive calls alias one buffer", first.name, second.name)
				}
			}
		}

		// RolloutBatch trajectories are clones: unaffected by any number of
		// subsequent engine calls (each of its >= 3 internal steps already
		// recycled the double buffer while the trajectory was accumulating).
		trajs := eng.RolloutBatch(rc, all[:3], 3)
		ref := make([][]*tensor.Matrix, len(trajs))
		for i := range trajs {
			for _, m := range trajs[i] {
				ref[i] = append(ref[i], m.Clone())
			}
		}
		for _, call := range calls {
			call.run()
		}
		for i := range trajs {
			for s := range trajs[i] {
				if d := bitDiff(ref[i][s], trajs[i][s]); d != 0 {
					return fmt.Errorf("trajectory %d step %d: %d values clobbered by later calls", i, s, d)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPredictBatchSteadyStateZeroAlloc gates the batched hot path the
// same way the unbatched engine is gated: after binding, a PredictBatch
// allocates nothing.
func TestPredictBatchSteadyStateZeroAlloc(t *testing.T) {
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
		xs := batchInputs(rc.Graph, 4)
		eng.PredictBatch(rc, xs) // bind: record the batched arena
		eng.PredictBatch(rc, xs)
		if n := testing.AllocsPerRun(5, func() { eng.PredictBatch(rc, xs) }); n != 0 {
			t.Errorf("batched inference step allocates %v times in steady state", n)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
