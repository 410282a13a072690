package gnn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"meshgnn/internal/comm"
	"meshgnn/internal/graph"
	"meshgnn/internal/mesh"
	"meshgnn/internal/nn"
	"meshgnn/internal/parallel"
	"meshgnn/internal/partition"
	"meshgnn/internal/tensor"
)

// floatBitDiff counts differing float64 bit patterns between two slices.
func floatBitDiff(a, b []float64) int {
	if len(a) != len(b) {
		return len(a) + len(b)
	}
	d := 0
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			d++
		}
	}
	return d
}

// paramBitDiff counts differing parameter bit patterns between two models.
func paramBitDiff(a, b *Model) int {
	ap, bp := a.Params(), b.Params()
	if len(ap) != len(bp) {
		return 1
	}
	d := 0
	for i := range ap {
		d += floatBitDiff(ap[i].W.Data, bp[i].W.Data)
	}
	return d
}

// oracleAccumulate runs the sequential accumulation oracle on ref: zero
// gradients once, then one Forward/Loss/Backward pass per sample, one
// gradient AllReduce, one optimizer step — the semantics StepBatch claims
// to reproduce bitwise. Returns the per-sample losses.
func oracleAccumulate(rc *RankContext, ref *Model, loss *ConsistentMSE,
	opt *nn.Adam, xs, ts []*tensor.Matrix) []float64 {
	ref.ZeroGrads()
	want := make([]float64, len(xs))
	for i := range xs {
		y := ref.Forward(rc, xs[i])
		want[i] = loss.Forward(rc, y, ts[i])
		ref.Backward(loss.Backward())
	}
	nn.AllReduceGradients(rc.Comm, ref.Params(), nil)
	opt.Step(ref.Params())
	return want
}

// stepBatchOracleDiff trains two identically initialized models — one via
// StepBatch, one via the sequential accumulation oracle — for two
// consecutive optimizer steps (the second exercising the batched arena
// replay after the recording pass) and returns the total number of
// differing bit patterns across per-sample losses, accumulated gradients,
// and updated parameters. The per-sample losses are the fused step's: the
// oracle reduces each with a standalone ConsistentMSE.Forward, the step
// carries the local sums in its gradient AllReduce — which must therefore
// be the step's only collective, whatever the batch size.
func stepBatchOracleDiff(rc *RankContext, cfg Config, batch int) (int, error) {
	mdl, err := NewModel(cfg)
	if err != nil {
		return 0, err
	}
	tr := NewTrainer(mdl, nn.NewAdam(1e-2))
	ref, err := NewModel(cfg)
	if err != nil {
		return 0, err
	}
	refOpt := nn.NewAdam(1e-2)
	var refLoss ConsistentMSE
	all := batchInputs(rc.Graph, 2*batch)
	xs, ts := all[:batch], all[batch:]
	diff := 0
	for pass := 0; pass < 2; pass++ {
		want := oracleAccumulate(rc, ref, &refLoss, refOpt, xs, ts)
		before := rc.Comm.Stats.AllReduces
		got := tr.StepBatch(rc, xs, ts)
		if n := rc.Comm.Stats.AllReduces - before; n != 1 {
			return 0, fmt.Errorf("StepBatch(B=%d) made %d AllReduces, want 1", batch, n)
		}
		diff += floatBitDiff(want, got)
		diff += floatBitDiff(nn.FlattenGrads(ref.Params(), nil), nn.FlattenGrads(mdl.Params(), nil))
		diff += paramBitDiff(ref, mdl)
	}
	return diff, nil
}

// TestStepBatchBitwiseOracleSweep is the tentpole's headline gate: the
// row-block batched training step must be bitwise-equal to the sequential
// B-step accumulation oracle across {1,2,4 ranks} × {channel, socket} ×
// {sync, overlap} × {1,4 threads} × {B = 1 (which is Trainer.Step), 2, 3,
// 4} — losses, gradients, and parameters, in one collective per step.
func TestStepBatchBitwiseOracleSweep(t *testing.T) {
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
							diff := 0
							for _, batch := range []int{1, 2, 3, 4} {
								d, err := stepBatchOracleDiff(rc, cfg, batch)
								if err != nil {
									return 0, err
								}
								diff += d
							}
							return diff, nil
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
								t.Errorf("rank %d: %d batched-training values differ bitwise from the sequential oracle", r, d)
							}
						}
					})
				}
			}
		}
	}
}

// TestStepBatchSizesEdgeModesAndRebind sweeps batch sizes (including the
// B=1 delegation to Step) on one trainer, with batch-size changes in
// between: every re-record must stay bitwise equal to the oracle. The
// subtest keeps the edge4 label of the 4-column edge inputs.
func TestStepBatchSizesEdgeModesAndRebind(t *testing.T) {
	t.Run("edge4", testStepBatchSizesAndRebind)
}

func testStepBatchSizesAndRebind(t *testing.T) {
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
	cfg := tinyConfig()
	res, err := comm.RunCollect(2, func(c *comm.Comm) (int, error) {
		rc, err := NewRankContext(c, box, locals[c.Rank()], comm.NeighborAllToAll)
		if err != nil {
			return 0, err
		}
		mdl, err := NewModel(cfg)
		if err != nil {
			return 0, err
		}
		tr := NewTrainer(mdl, nn.NewAdam(1e-2))
		ref, err := NewModel(cfg)
		if err != nil {
			return 0, err
		}
		refOpt := nn.NewAdam(1e-2)
		var refLoss ConsistentMSE
		all := batchInputs(rc.Graph, 16)
		diff := 0
		// B=3 records, B=1 delegates to Step, B=2 and B=8 re-record,
		// B=3 re-records again — every transition from the same
		// trainer must track the oracle bitwise.
		for _, batch := range []int{3, 1, 2, 8, 3} {
			xs, ts := all[:batch], all[8:8+batch]
			want := oracleAccumulate(rc, ref, &refLoss, refOpt, xs, ts)
			got := tr.StepBatch(rc, xs, ts)
			diff += floatBitDiff(want, got)
			diff += paramBitDiff(ref, mdl)
		}
		return diff, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, d := range res {
		if d != 0 {
			t.Errorf("rank %d: %d values differ bitwise across batch-size changes", r, d)
		}
	}
}

// TestFitBatchedGroupsShuffledOrder locks the documented Fit grouping:
// with Batch=B each epoch's shuffled visit order trains in runs of B (one
// StepBatch each; a short tail falls back to per-sample Steps) with the
// noise stream keyed by visit position exactly as in the B=1 epoch. A twin
// trainer driven by an explicit reimplementation of that grouping must
// match Fit bitwise — epoch losses and final parameters.
func TestFitBatchedGroupsShuffledOrder(t *testing.T) {
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
	const (
		nSamples = 5 // odd: every epoch ends in a one-sample tail
		batch    = 2
		epochs   = 2
	)
	opts := FitOptions{Epochs: epochs, ShuffleSeed: 7, NoiseSigma: 0.01, NoiseSeed: 3}
	type out struct {
		Curve  []float64
		Params []float64
	}
	res, err := comm.RunCollect(2, func(c *comm.Comm) (out, error) {
		rc, err := NewRankContext(c, box, locals[c.Rank()], comm.NeighborAllToAll)
		if err != nil {
			return out{}, err
		}
		cfg := tinyConfig()
		mdl, err := NewModel(cfg)
		if err != nil {
			return out{}, err
		}
		tr := NewTrainer(mdl, nn.NewAdam(1e-2))
		tr.Batch = batch
		samples := batchInputs(rc.Graph, 2*nSamples)
		var ds Dataset
		for i := 0; i < nSamples; i++ {
			ds.Add(samples[i], samples[nSamples+i])
		}
		curve := tr.Fit(rc, &ds, opts)

		// Twin: explicit grouping with the documented shuffle and noise
		// streams, driven through StepBatch/Step directly.
		ref, err := NewModel(cfg)
		if err != nil {
			return out{}, err
		}
		refTr := NewTrainer(ref, nn.NewAdam(1e-2))
		order := make([]int, nSamples)
		for i := range order {
			order[i] = i
		}
		var refCurve []float64
		for e := 0; e < epochs; e++ {
			rng := rand.New(rand.NewSource(opts.ShuffleSeed + int64(e)))
			rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			var sum float64
			for start := 0; start < len(order); start += batch {
				end := start + batch
				if end > len(order) {
					end = len(order)
				}
				var xs, ts []*tensor.Matrix
				for step := start; step < end; step++ {
					idx := order[step]
					noisy := ds.Inputs[idx].Clone()
					n := NoiseField(rc.Graph, noisy.Cols, opts.NoiseSigma,
						opts.NoiseSeed^uint64(e)<<32^uint64(step))
					tensor.AddScaled(noisy, 1, n)
					xs = append(xs, noisy)
					ts = append(ts, ds.Targets[idx])
				}
				if len(xs) < batch {
					for i := range xs {
						sum += refTr.Step(rc, xs[i], ts[i])
					}
				} else {
					for _, l := range refTr.StepBatch(rc, xs, ts) {
						sum += l
					}
				}
			}
			refCurve = append(refCurve, sum/float64(nSamples))
		}
		if d := floatBitDiff(curve, refCurve) + paramBitDiff(ref, mdl); d != 0 {
			return out{}, fmt.Errorf("rank %d: Fit(B=%d) deviates from explicit grouping in %d values",
				c.Rank(), batch, d)
		}
		var flat []float64
		for _, p := range mdl.Params() {
			flat = append(flat, p.W.Data...)
		}
		return out{Curve: curve, Params: flat}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Ranks must agree bitwise (collective training).
	for r := 1; r < len(res); r++ {
		if d := floatBitDiff(res[0].Params, res[r].Params); d != 0 {
			t.Errorf("rank %d parameters diverge from rank 0 in %d values", r, d)
		}
		if d := floatBitDiff(res[0].Curve, res[r].Curve); d != 0 {
			t.Errorf("rank %d epoch losses diverge from rank 0 in %d values", r, d)
		}
	}
}

// TestStepBatchSteadyStateZeroAlloc gates the batched training hot path
// like the unbatched step: once the arena has recorded, a StepBatch
// allocates nothing.
func TestStepBatchSteadyStateZeroAlloc(t *testing.T) {
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
		tr := NewTrainer(model, nn.NewAdam(1e-3))
		all := batchInputs(rc.Graph, 8)
		xs, ts := all[:4], all[4:]
		tr.StepBatch(rc, xs, ts) // bind: record the batched arena
		tr.StepBatch(rc, xs, ts)
		if n := testing.AllocsPerRun(5, func() { tr.StepBatch(rc, xs, ts) }); n != 0 {
			t.Errorf("batched training step allocates %v times in steady state", n)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
