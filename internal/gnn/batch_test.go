package gnn

import (
	"fmt"
	"math"
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

// TestPredictBatchBitwiseParitySweep is the tentpole's headline gate:
// per-sample PredictBatch output must be bitwise-identical to sequential
// Predict across {1,2,4 ranks} × {channel, socket} × {sync, overlap} ×
// {B=1,3,8}.
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
					transport := "channel"
					if sockets {
						transport = "socket"
					}
					pipeline := "sync"
					if overlap {
						pipeline = "overlap"
					}
					name := fmt.Sprintf("R%d/%s/%s/B%d", ranks, transport, pipeline, batch)
					t.Run(name, func(t *testing.T) {
						cfg := tinyConfig()
						cfg.Overlap = overlap
						body := func(c *comm.Comm) (int, error) {
							rc, err := NewRankContext(c, box, locals[c.Rank()], comm.SendRecvMode)
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

// TestPredictBatchAllExchangeModes covers the four halo exchange modes
// and both edge-feature modes with a thread sweep: the batched frames
// must not change a bit under any packing/collective spelling.
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
	for _, mode := range []comm.ExchangeMode{comm.NoExchange, comm.AllToAllMode, comm.NeighborAllToAll, comm.SendRecvMode} {
		for _, edgeMode := range []EdgeFeatureMode{EdgeFeatures4, EdgeFeatures7} {
			for _, threads := range []int{1, 4} {
				t.Run(fmt.Sprintf("%v/edge%d/t%d", mode, edgeMode, threads), func(t *testing.T) {
					parallel.Configure(threads, true)
					cfg := tinyConfig()
					cfg.EdgeMode = edgeMode
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
// batched path: per-sample trajectories bitwise-equal to e.Rollout, and
// every trajectory entry an independent copy.
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
	err = comm.Run(2, func(c *comm.Comm) error {
		rc, err := NewRankContext(c, box, locals[c.Rank()], comm.SendRecvMode)
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
		t.Fatal(err)
	}
}

// TestPredictBatchRebind exercises batch-size changes on one engine: the
// batched arena must re-record cleanly and stay bitwise-correct through
// B=2 → B=3 → B=2, a rebind must tile the static-edge encoding from the
// compile's cache instead of encoding the edge set again, and
// WorkspaceFootprint must count the batched arena.
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
	err = comm.Run(2, func(c *comm.Comm) error {
		rc, err := NewRankContext(c, box, locals[c.Rank()], comm.SendRecvMode)
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
		xs := batchInputs(rc.Graph, 2)
		eng.Predict(rc, xs[0])
		single := eng.WorkspaceFootprint()
		eng.PredictBatch(rc, xs)
		both := eng.WorkspaceFootprint()
		if both <= single {
			return fmt.Errorf("footprint %d after the first PredictBatch, %d before: the batched arena is not counted", both, single)
		}
		eng.PredictBatch(rc, xs)
		if got := eng.WorkspaceFootprint(); got != both {
			return fmt.Errorf("footprint moved %d -> %d on a steady-state PredictBatch", both, got)
		}
		// The static edges are encoded by now (EdgeFeatures4: once per
		// graph, into the compile's cache). Take the encoder away: a
		// rebind that encodes anything dereferences nil.
		eng.edgeEnc = nil
		for _, batch := range []int{2, 3, 2} {
			if d := batchParity(rc, eng, batchInputs(rc.Graph, batch)); d != 0 {
				return fmt.Errorf("B=%d after rebind: %d values differ bitwise", batch, d)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPredictBatchSequentialFallback checks the configurations without a
// stacked twin (attention processors, the float32 engine): PredictBatch
// must still honor the API and match per-sample Predict bitwise.
func TestPredictBatchSequentialFallback(t *testing.T) {
	box, err := mesh.NewBox(4, 3, 3, 2, [3]bool{true, true, true})
	if err != nil {
		t.Fatal(err)
	}
	part, err := partition.NewCartesian(box, 1, partition.Slabs)
	if err != nil {
		t.Fatal(err)
	}
	locals, err := graph.BuildAll(box, part)
	if err != nil {
		t.Fatal(err)
	}
	for _, variant := range []string{"attention", "float32"} {
		t.Run(variant, func(t *testing.T) {
			cfg := tinyConfig()
			switch variant {
			case "attention":
				cfg.Attention = true
			case "float32":
				cfg.Precision = Float32
			}
			err := comm.Run(1, func(c *comm.Comm) error {
				rc, err := NewRankContext(c, box, locals[0], comm.NoExchange)
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
				xs := batchInputs(rc.Graph, 3)
				seq := make([]*tensor.Matrix, len(xs))
				for i, x := range xs {
					seq[i] = eng.Predict(rc, x).Clone()
				}
				outs := eng.PredictBatch(rc, xs)
				for i := range xs {
					if d := bitDiff(seq[i], outs[i]); d != 0 {
						return fmt.Errorf("sample %d: %d values differ bitwise (fallback)", i, d)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPredictBatchOutputLifetimeContract pins the documented double-buffer
// lifetime: a PredictBatch result stays bitwise-intact through exactly ONE
// subsequent engine call, consecutive calls hand out distinct backing
// buffers, and RolloutBatch trajectories (steps >= 3, so the internal
// buffer flips several times within one call) are independent clones that
// survive arbitrary later calls.
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
		rc, err := NewRankContext(c, box, locals[c.Rank()], comm.SendRecvMode)
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
		all := batchInputs(rc.Graph, 6)
		xs1, xs2 := all[:3], all[3:]

		out1 := eng.PredictBatch(rc, xs1)
		keep := make([]*tensor.Matrix, len(out1))
		for i, o := range out1 {
			keep[i] = o.Clone()
		}
		out2 := eng.PredictBatch(rc, xs2) // the ONE subsequent call
		for i := range out1 {
			if d := bitDiff(keep[i], out1[i]); d != 0 {
				return fmt.Errorf("sample %d: %d values clobbered by one subsequent call", i, d)
			}
			// Distinct backing: the second call must not hand back the
			// buffer the first call's results still live in.
			if &out1[i].Data[0] == &out2[i].Data[0] {
				return fmt.Errorf("sample %d: consecutive PredictBatch calls alias one buffer", i)
			}
		}

		// RolloutBatch trajectories are clones: unaffected by any number of
		// subsequent engine calls (each of its >= 3 internal steps already
		// recycled the double buffer while the trajectory was accumulating).
		trajs := eng.RolloutBatch(rc, xs1, 3)
		ref := make([][]*tensor.Matrix, len(trajs))
		for i := range trajs {
			for _, m := range trajs[i] {
				ref[i] = append(ref[i], m.Clone())
			}
		}
		eng.PredictBatch(rc, xs2)
		eng.PredictBatch(rc, xs1)
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
