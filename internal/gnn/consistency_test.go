package gnn

import (
	"math"
	"testing"

	"meshgnn/internal/comm"
	"meshgnn/internal/graph"
	"meshgnn/internal/mesh"
	"meshgnn/internal/nn"
	"meshgnn/internal/partition"
	"meshgnn/internal/tensor"
)

// tinyConfig is a small-but-nontrivial model for fast tests.
func tinyConfig() Config {
	return Config{
		Name:                 "tiny",
		InputNodeFeatures:    3,
		OutputNodeFeatures:   3,
		HiddenDim:            6,
		MessagePassingLayers: 2,
		MLPHiddenLayers:      1,
		Seed:                 11,
	}
}

// waveField fills a node-feature matrix from the node coordinates with a
// smooth vector field, standing in for a PDE snapshot. Coincident nodes
// get identical values by construction.
func waveField(l *graph.Local) *tensor.Matrix {
	x := tensor.New(l.NumLocal(), 3)
	for i := 0; i < l.NumLocal(); i++ {
		cx, cy, cz := l.Coords.At(i, 0), l.Coords.At(i, 1), l.Coords.At(i, 2)
		// Incommensurate frequencies and offsets keep the rows
		// non-degenerate on coarse lattices (LayerNorm dislikes
		// constant rows).
		x.Set(i, 0, math.Sin(2*math.Pi*cx+0.3)*math.Cos(2*math.Pi*cy-0.2))
		x.Set(i, 1, -math.Cos(1.7*cx+0.5)*math.Sin(2.3*cy+1.1))
		x.Set(i, 2, 0.3*math.Sin(1.9*cz+0.7)+0.1*cx)
	}
	return x
}

type rankResult struct {
	loss   float64
	grads  []float64
	output *tensor.Matrix // assembled global output (rank 0 only)
	disc   float64
}

// runForwardLoss evaluates the model and consistent loss on box split over
// r ranks with the given exchange mode, returning the loss, the global
// gradient vector (after AllReduce), and the assembled global output.
func runForwardLoss(t *testing.T, box *mesh.Box, r int, mode comm.ExchangeMode, cfg Config, train bool) rankResult {
	t.Helper()
	var part partition.Partition
	var err error
	if r == 1 {
		part, err = partition.NewCartesian(box, 1, partition.Slabs)
	} else {
		part, err = partition.NewCartesian(box, r, partition.Blocks)
	}
	if err != nil {
		t.Fatal(err)
	}
	locals, err := graph.BuildAll(box, part)
	if err != nil {
		t.Fatal(err)
	}
	results, err := comm.RunCollect(r, func(c *comm.Comm) (rankResult, error) {
		rc, err := NewRankContext(c, box, locals[c.Rank()], mode)
		if err != nil {
			return rankResult{}, err
		}
		model, err := NewModel(cfg)
		if err != nil {
			return rankResult{}, err
		}
		x := waveField(rc.Graph)
		model.ZeroGrads()
		y := model.Forward(rc, x)
		var loss ConsistentMSE
		lv := loss.Forward(rc, y, x) // autoencoding task, Ŷ = X
		var grads []float64
		if train {
			model.Backward(loss.Backward())
			grads = FlattenAllReducedGrads(c, model)
		}
		out, disc := GlobalOutputs(rc, y, box.NumNodes())
		return rankResult{loss: lv, grads: grads, output: out, disc: disc}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	res := results[0]
	// All ranks must report the identical loss (it is AllReduced).
	for rank, rr := range results {
		if rr.loss != res.loss {
			t.Fatalf("rank %d loss %v differs from rank 0 loss %v", rank, rr.loss, res.loss)
		}
	}
	return res
}

// FlattenAllReducedGrads reduces and flattens a model's gradients.
func FlattenAllReducedGrads(c *comm.Comm, m *Model) []float64 {
	buf := make([]float64, 0)
	for _, p := range m.Params() {
		buf = append(buf, p.G.Data...)
	}
	c.AllReduceSum(buf)
	return buf
}

func TestParamCountsMatchTable1(t *testing.T) {
	small, err := NewModel(SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if small.NumParams() != 3979 {
		t.Fatalf("small params = %d, want 3979 (Table I)", small.NumParams())
	}
	large, err := NewModel(LargeConfig())
	if err != nil {
		t.Fatal(err)
	}
	if large.NumParams() != 91459 {
		t.Fatalf("large params = %d, want 91459 (Table I)", large.NumParams())
	}
}

func TestConfigValidate(t *testing.T) {
	bad := SmallConfig()
	bad.HiddenDim = 0
	if _, err := NewModel(bad); err == nil {
		t.Fatal("expected error for zero hidden dim")
	}
	bad2 := SmallConfig()
	bad2.Precision = 5
	if err := bad2.Validate(); err == nil {
		t.Fatal("expected error for bad precision")
	}
}

func TestParamCountFormulaMatchesBuild(t *testing.T) {
	for _, c := range []Config{tinyConfig(), SmallConfig(), LargeConfig()} {
		m, err := NewModel(c)
		if err != nil {
			t.Fatal(err)
		}
		if m.NumParams() != c.ParamCount() {
			t.Fatalf("%s: built %d, formula %d", c.Name, m.NumParams(), c.ParamCount())
		}
	}
}

// Eq. 2 (outputs): the assembled distributed output must equal the R=1
// output, and coincident copies must agree across ranks, for every
// differentiable exchange mode.
func TestOutputConsistencyEq2(t *testing.T) {
	box, err := mesh.NewBox(4, 4, 2, 2, [3]bool{true, false, false})
	if err != nil {
		t.Fatal(err)
	}
	ref := runForwardLoss(t, box, 1, comm.NeighborAllToAll, tinyConfig(), false)
	for _, mode := range []comm.ExchangeMode{comm.AllToAllMode, comm.NeighborAllToAll} {
		for _, r := range []int{2, 4, 8} {
			got := runForwardLoss(t, box, r, mode, tinyConfig(), false)
			if d := got.output.MaxAbsDiff(ref.output); d > 1e-11 {
				t.Fatalf("mode %v R=%d: output deviates from R=1 by %g", mode, r, d)
			}
			if got.disc > 1e-11 {
				t.Fatalf("mode %v R=%d: coincident copies disagree by %g", mode, r, got.disc)
			}
		}
	}
}

// Without halo exchanges the standard NMP formulation must *not* be
// consistent — and the deviation must grow with R (paper Fig. 6 left).
func TestInconsistencyWithoutExchange(t *testing.T) {
	box, err := mesh.NewBox(4, 4, 2, 2, [3]bool{true, false, false})
	if err != nil {
		t.Fatal(err)
	}
	ref := runForwardLoss(t, box, 1, comm.NoExchange, tinyConfig(), false)
	var prev float64
	for _, r := range []int{2, 4, 8} {
		got := runForwardLoss(t, box, r, comm.NoExchange, tinyConfig(), false)
		dev := math.Abs(got.loss - ref.loss)
		if dev < 1e-9 {
			t.Fatalf("R=%d: no-exchange run unexpectedly consistent (dev %g)", r, dev)
		}
		if dev < prev {
			t.Fatalf("deviation should not shrink with R: %g then %g", prev, dev)
		}
		prev = dev
	}
}

// Eq. 2 (loss): the consistent loss value must be invariant to R.
func TestLossConsistency(t *testing.T) {
	box, err := mesh.NewBox(4, 2, 4, 1, [3]bool{false, false, true})
	if err != nil {
		t.Fatal(err)
	}
	ref := runForwardLoss(t, box, 1, comm.NeighborAllToAll, tinyConfig(), false)
	for _, r := range []int{2, 4, 8} {
		got := runForwardLoss(t, box, r, comm.NeighborAllToAll, tinyConfig(), false)
		if rel := math.Abs(got.loss-ref.loss) / (1 + math.Abs(ref.loss)); rel > 1e-12 {
			t.Fatalf("R=%d: loss %v vs R=1 %v (rel %g)", r, got.loss, ref.loss, rel)
		}
	}
}

// Eq. 3: backpropagated parameter gradients must be invariant to the
// partitioning for every differentiable exchange mode.
func TestGradientConsistencyEq3(t *testing.T) {
	box, err := mesh.NewBox(4, 4, 2, 1, [3]bool{true, true, false})
	if err != nil {
		t.Fatal(err)
	}
	ref := runForwardLoss(t, box, 1, comm.NeighborAllToAll, tinyConfig(), true)
	var refNorm float64
	for _, g := range ref.grads {
		refNorm += g * g
	}
	refNorm = math.Sqrt(refNorm)
	if refNorm == 0 {
		t.Fatal("reference gradient is zero; test is vacuous")
	}
	for _, mode := range []comm.ExchangeMode{comm.AllToAllMode, comm.NeighborAllToAll} {
		for _, r := range []int{2, 4, 8} {
			got := runForwardLoss(t, box, r, mode, tinyConfig(), true)
			var diff float64
			for i := range ref.grads {
				d := got.grads[i] - ref.grads[i]
				diff += d * d
			}
			if rel := math.Sqrt(diff) / refNorm; rel > 1e-9 {
				t.Fatalf("mode %v R=%d: gradient deviates by rel %g", mode, r, rel)
			}
		}
	}
}

// Gradients without halo exchange must deviate: differentiability of the
// exchange is load-bearing.
func TestGradientInconsistencyWithoutExchange(t *testing.T) {
	box, err := mesh.NewBox(4, 4, 2, 1, [3]bool{true, true, false})
	if err != nil {
		t.Fatal(err)
	}
	ref := runForwardLoss(t, box, 1, comm.NeighborAllToAll, tinyConfig(), true)
	got := runForwardLoss(t, box, 4, comm.NoExchange, tinyConfig(), true)
	var diff, norm float64
	for i := range ref.grads {
		d := got.grads[i] - ref.grads[i]
		diff += d * d
		norm += ref.grads[i] * ref.grads[i]
	}
	if math.Sqrt(diff/norm) < 1e-6 {
		t.Fatal("no-exchange gradients unexpectedly consistent")
	}
}

// Aggregation without the 1/d_ij factor of (4b) double-counts the edges
// coincident copies share, so the degree scaling is what makes a
// partitioned run equal the single-rank one: with every factor set to 1
// the two-rank loss must differ.
func TestUnscaledAggregationBreaksConsistency(t *testing.T) {
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
	for _, l := range locals {
		for k := range l.InvEdgeDegree {
			l.InvEdgeDegree[k] = 1
		}
	}
	ref := runForwardLoss(t, box, 1, comm.NeighborAllToAll, tinyConfig(), false)
	results, err := comm.RunCollect(2, func(c *comm.Comm) (float64, error) {
		rc, err := NewRankContext(c, box, locals[c.Rank()], comm.NeighborAllToAll)
		if err != nil {
			return 0, err
		}
		model, err := NewModel(tinyConfig())
		if err != nil {
			return 0, err
		}
		x := waveField(rc.Graph)
		y := model.Forward(rc, x)
		var loss ConsistentMSE
		return loss.Forward(rc, y, x), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(results[0]-ref.loss) < 1e-9 {
		t.Fatal("unscaled aggregation unexpectedly consistent")
	}
}

// localMSE (the inconsistent loss) must differ from the consistent loss on
// partitioned graphs — it double-counts coincident nodes.
func TestLocalMSEInconsistent(t *testing.T) {
	box, err := mesh.NewBox(4, 2, 2, 1, [3]bool{})
	if err != nil {
		t.Fatal(err)
	}
	part, err := partition.NewCartesian(box, 4, partition.Slabs)
	if err != nil {
		t.Fatal(err)
	}
	locals, err := graph.BuildAll(box, part)
	if err != nil {
		t.Fatal(err)
	}
	type pair struct{ consistent, local float64 }
	results, err := comm.RunCollect(4, func(c *comm.Comm) (pair, error) {
		rc, err := NewRankContext(c, box, locals[c.Rank()], comm.NeighborAllToAll)
		if err != nil {
			return pair{}, err
		}
		model, err := NewModel(tinyConfig())
		if err != nil {
			return pair{}, err
		}
		x := waveField(rc.Graph)
		y := model.Forward(rc, x)
		var loss ConsistentMSE
		cv := loss.Forward(rc, y, x)
		// Average the local MSEs like plain DDP would.
		lv := []float64{localMSE(y, x)}
		c.AllReduceSum(lv)
		return pair{consistent: cv, local: lv[0] / float64(c.Size())}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(results[0].consistent-results[0].local) < 1e-12 {
		t.Fatal("local MSE coincided with consistent loss; expected inconsistency")
	}
}

// localMSE is the standard per-rank mean-squared error (paper Eq. 5
// evaluated independently per sub-graph) — the *inconsistent* formulation
// used to demonstrate what degree scaling fixes.
func localMSE(y, target *tensor.Matrix) float64 {
	if y.Rows != target.Rows || y.Cols != target.Cols {
		panic("gnn: localMSE shape mismatch")
	}
	var s float64
	for i, v := range y.Data {
		d := v - target.Data[i]
		s += d * d
	}
	return s / float64(len(y.Data))
}

// Training trajectories (paper Fig. 6 right): R=4 consistent training must
// match R=1 iteration for iteration; R=4 without exchange must diverge
// from it.
func TestTrainingTrajectoryConsistency(t *testing.T) {
	box, err := mesh.NewBox(4, 2, 2, 1, [3]bool{true, false, false})
	if err != nil {
		t.Fatal(err)
	}
	const iters = 12
	train := func(r int, mode comm.ExchangeMode) []float64 {
		var part partition.Partition
		var err error
		if r == 1 {
			part, err = partition.NewCartesian(box, 1, partition.Slabs)
		} else {
			part, err = partition.NewCartesian(box, r, partition.Slabs)
		}
		if err != nil {
			t.Fatal(err)
		}
		locals, err := graph.BuildAll(box, part)
		if err != nil {
			t.Fatal(err)
		}
		results, err := comm.RunCollect(r, func(c *comm.Comm) ([]float64, error) {
			rc, err := NewRankContext(c, box, locals[c.Rank()], mode)
			if err != nil {
				return nil, err
			}
			model, err := NewModel(tinyConfig())
			if err != nil {
				return nil, err
			}
			tr := NewTrainer(model, nn.NewAdam(1e-2))
			x := waveField(rc.Graph)
			curve := make([]float64, iters)
			for it := 0; it < iters; it++ {
				curve[it] = tr.Step(rc, x, x)
			}
			return curve, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return results[0]
	}
	ref := train(1, comm.NeighborAllToAll)
	consistent := train(4, comm.NeighborAllToAll)
	inconsistent := train(4, comm.NoExchange)
	for it := range ref {
		if rel := math.Abs(consistent[it]-ref[it]) / (1 + ref[it]); rel > 1e-8 {
			t.Fatalf("iter %d: consistent curve deviates rel %g (%v vs %v)",
				it, rel, consistent[it], ref[it])
		}
	}
	var devSum float64
	for it := range ref {
		devSum += math.Abs(inconsistent[it] - ref[it])
	}
	if devSum < 1e-7 {
		t.Fatal("inconsistent training unexpectedly tracked the R=1 trajectory")
	}
	// Training must actually make progress.
	if ref[iters-1] >= ref[0] {
		t.Fatalf("loss did not decrease: %v -> %v", ref[0], ref[iters-1])
	}
}
