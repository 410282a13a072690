// Package experiments contains one driver per table and figure of the
// paper's evaluation (Sec. III), producing the same rows and series the
// paper reports; cmd/scaling, cmd/consistency and cmd/meshinfo print
// them.
//
// Two tiers exist for the scaling studies:
//
//   - measured: real goroutine-rank runs of the full distributed GNN at
//     laptop scale, with wall-clock timing and exact traffic counters;
//   - projected: the perfmodel machine description evaluated on workloads
//     whose graph statistics (nodes, halos, neighbors, buffer sizes) are
//     computed exactly from the real partition geometry at 8–2048 ranks.
package experiments

import (
	"fmt"
	"time"

	"meshgnn/internal/comm"
	"meshgnn/internal/field"
	"meshgnn/internal/gnn"
	"meshgnn/internal/graph"
	"meshgnn/internal/mesh"
	"meshgnn/internal/nn"
	"meshgnn/internal/partition"
)

// inputField is the Taylor–Green snapshot used as node data throughout,
// matching the paper's Ŷ_r = X_r setup on the TGV solution.
func inputField() field.TaylorGreen { return field.TaylorGreen{V0: 1, L: 1, Nu: 0.01} }

// buildLocals partitions the box and constructs every rank's sub-graph.
func buildLocals(box *mesh.Box, r int, strat partition.Strategy) ([]*graph.Local, error) {
	part, err := partition.NewCartesian(box, r, strat)
	if err != nil {
		return nil, err
	}
	return graph.BuildAll(box, part)
}

// ---------------------------------------------------------------------------
// Fig. 6 (left): loss vs number of ranks, standard vs consistent NMP.

// Fig6LeftRow is one point of the paper's Fig. 6 (left).
type Fig6LeftRow struct {
	R          int
	Standard   float64 // loss with conventional NMP layers (no halo exchange)
	Consistent float64 // loss with consistent NMP layers
	TargetR1   float64 // reference loss of the unpartitioned graph
}

// Fig6Left evaluates a randomly initialized GNN on a cubic mesh of
// elems³ elements at order p, partitioned over each R in rs, with the
// target set to the input (paper's demonstration task). Consistent rows
// must coincide with the R=1 target; standard rows deviate increasingly
// with R.
func Fig6Left(elems, p int, rs []int, cfg gnn.Config) ([]Fig6LeftRow, error) {
	box, err := mesh.NewBox(elems, elems, elems, p, [3]bool{})
	if err != nil {
		return nil, err
	}
	ref, err := evalLoss(box, 1, partition.Slabs, comm.NeighborAllToAll, cfg)
	if err != nil {
		return nil, err
	}
	rows := make([]Fig6LeftRow, 0, len(rs))
	for _, r := range rs {
		// Blocks handles any power-of-two R on cubic meshes; slabs would
		// run out of elements along one axis at larger R.
		strat := partition.Blocks
		std, err := evalLoss(box, r, strat, comm.NoExchange, cfg)
		if err != nil {
			return nil, fmt.Errorf("R=%d standard: %w", r, err)
		}
		con, err := evalLoss(box, r, strat, comm.NeighborAllToAll, cfg)
		if err != nil {
			return nil, fmt.Errorf("R=%d consistent: %w", r, err)
		}
		rows = append(rows, Fig6LeftRow{R: r, Standard: std, Consistent: con, TargetR1: ref})
	}
	return rows, nil
}

// evalLoss runs one collective forward+loss evaluation.
func evalLoss(box *mesh.Box, r int, strat partition.Strategy, mode comm.ExchangeMode, cfg gnn.Config) (float64, error) {
	locals, err := buildLocals(box, r, strat)
	if err != nil {
		return 0, err
	}
	results, err := comm.RunCollect(r, func(c *comm.Comm) (float64, error) {
		rc, err := gnn.NewRankContext(c, box, locals[c.Rank()], mode)
		if err != nil {
			return 0, err
		}
		model, err := gnn.NewModel(cfg)
		if err != nil {
			return 0, err
		}
		x := field.Sample(inputField(), rc.Graph, 0.25)
		y := model.Forward(rc, x)
		var loss gnn.ConsistentMSE
		return loss.Forward(rc, y, x), nil
	})
	if err != nil {
		return 0, err
	}
	return results[0], nil
}

// ---------------------------------------------------------------------------
// Fig. 6 (right): training curves, R=1 target vs R=8 standard/consistent.

// Fig6RightResult holds the three loss-vs-iteration curves.
type Fig6RightResult struct {
	TargetR1   []float64
	Standard   []float64
	Consistent []float64
	R          int
}

// Fig6Right trains the model for iters iterations on the autoencoding
// task (paper Fig. 6 right: the consistent R-way curve retraces the R=1
// curve; the standard curve deviates).
func Fig6Right(elems, p, r, iters int, cfg gnn.Config, lr float64) (*Fig6RightResult, error) {
	box, err := mesh.NewBox(elems, elems, elems, p, [3]bool{})
	if err != nil {
		return nil, err
	}
	res := &Fig6RightResult{R: r}
	if res.TargetR1, err = trainCurve(box, 1, comm.NeighborAllToAll, cfg, iters, lr); err != nil {
		return nil, err
	}
	if res.Standard, err = trainCurve(box, r, comm.NoExchange, cfg, iters, lr); err != nil {
		return nil, err
	}
	if res.Consistent, err = trainCurve(box, r, comm.NeighborAllToAll, cfg, iters, lr); err != nil {
		return nil, err
	}
	return res, nil
}

func trainCurve(box *mesh.Box, r int, mode comm.ExchangeMode, cfg gnn.Config, iters int, lr float64) ([]float64, error) {
	locals, err := buildLocals(box, r, partition.Blocks)
	if err != nil {
		return nil, err
	}
	curves, err := comm.RunCollect(r, func(c *comm.Comm) ([]float64, error) {
		rc, err := gnn.NewRankContext(c, box, locals[c.Rank()], mode)
		if err != nil {
			return nil, err
		}
		model, err := gnn.NewModel(cfg)
		if err != nil {
			return nil, err
		}
		trainer := gnn.NewTrainer(model, nn.NewAdam(lr))
		x := field.Sample(inputField(), rc.Graph, 0.25)
		curve := make([]float64, iters)
		for it := 0; it < iters; it++ {
			curve[it] = trainer.Step(rc, x, x)
		}
		return curve, nil
	})
	if err != nil {
		return nil, err
	}
	return curves[0], nil
}

// ---------------------------------------------------------------------------
// Table I: model settings.

// Table1Row mirrors one column of the paper's Table I.
type Table1Row struct {
	Name            string
	HiddenDim       int
	MPLayers        int
	MLPHiddenLayers int
	Parameters      int
}

// Table1 returns the small and large configuration rows; the parameter
// counts must equal the paper's 3,979 and 91,459.
func Table1() []Table1Row {
	rows := make([]Table1Row, 0, 2)
	for _, cfg := range []gnn.Config{gnn.SmallConfig(), gnn.LargeConfig()} {
		rows = append(rows, Table1Row{
			Name:            cfg.Name,
			HiddenDim:       cfg.HiddenDim,
			MPLayers:        cfg.MessagePassingLayers,
			MLPHiddenLayers: cfg.MLPHiddenLayers,
			Parameters:      cfg.ParamCount(),
		})
	}
	return rows
}

// ---------------------------------------------------------------------------
// Table II: partitioned sub-graph statistics.

// Table2Row mirrors one row of the paper's Table II.
type Table2Row struct {
	Ranks                      int
	NodesMin, NodesMax         int64
	NodesAvg                   float64
	HaloMin, HaloMax           int64
	HaloAvg                    float64
	NeighborsMin, NeighborsMax int
	NeighborsAvg               float64
	TotalNodes                 int64
}

// Table2 computes per-rank statistics for a fully periodic TGV-style mesh
// at order p with elemsPerRank³ elements of loading per rank, for each
// rank count. Following the paper's footnote, R <= 8 uses slab ("vertical
// chunk") decomposition and larger R uses sub-cube blocks. All statistics
// come from the analytic fast path (validated against materialized
// graphs), which is what makes the 2048-rank / 1.1e9-node row tractable
// on one machine.
func Table2(p, elemsPerRank int, rs []int) ([]Table2Row, error) {
	rows := make([]Table2Row, 0, len(rs))
	for _, r := range rs {
		strat := partition.Blocks
		if r <= 8 {
			strat = partition.Slabs
		}
		box, cart, err := weakScalingMesh(p, elemsPerRank, r, strat)
		if err != nil {
			return nil, err
		}
		sum := partition.Summarize(box, cart.CartesianStats())
		rows = append(rows, Table2Row{
			Ranks:    r,
			NodesMin: sum.NodesMin, NodesMax: sum.NodesMax, NodesAvg: sum.NodesAvg,
			HaloMin: sum.HaloMin, HaloMax: sum.HaloMax, HaloAvg: sum.HaloAvg,
			NeighborsMin: sum.NeighborsMin, NeighborsMax: sum.NeighborsMax,
			NeighborsAvg: sum.NeighborsAvg,
			TotalNodes:   sum.TotalGraphNodes,
		})
	}
	return rows, nil
}

// weakScalingMesh builds the global periodic mesh for a weak-scaling
// configuration: the rank grid (from the strategy) times elemsPerRank
// elements per rank along each split axis.
func weakScalingMesh(p, elemsPerRank, r int, strat partition.Strategy) (*mesh.Box, *partition.Cartesian, error) {
	rx, ry, rz := rankGrid(r, strat)
	box, err := mesh.NewBox(rx*elemsPerRank, ry*elemsPerRank, rz*elemsPerRank, p,
		[3]bool{true, true, true})
	if err != nil {
		return nil, nil, err
	}
	cart, err := partition.NewCartesian(box, r, strat)
	if err != nil {
		return nil, nil, err
	}
	if cart.Rx != rx || cart.Ry != ry || cart.Rz != rz {
		return nil, nil, fmt.Errorf("experiments: partitioner chose %dx%dx%d, expected %dx%dx%d",
			cart.Rx, cart.Ry, cart.Rz, rx, ry, rz)
	}
	return box, cart, nil
}

// rankGrid factorizes r into a process grid per the strategy: slabs are
// r×1×1; blocks use the most cubic factorization.
func rankGrid(r int, strat partition.Strategy) (rx, ry, rz int) {
	if strat == partition.Slabs {
		return r, 1, 1
	}
	best := [3]int{r, 1, 1}
	bestCost := 1 << 62
	for a := 1; a <= r; a++ {
		if r%a != 0 {
			continue
		}
		ra := r / a
		for b := 1; b <= ra; b++ {
			if ra%b != 0 {
				continue
			}
			c := ra / b
			// Cost: spread between largest and smallest factor.
			hi, lo := a, a
			for _, v := range []int{b, c} {
				if v > hi {
					hi = v
				}
				if v < lo {
					lo = v
				}
			}
			if cost := hi - lo; cost < bestCost {
				bestCost = cost
				best = [3]int{a, b, c}
			}
		}
	}
	return best[0], best[1], best[2]
}

// ---------------------------------------------------------------------------
// Shared helpers for the measured tier.

// measuredMesh builds the weak-scaling box and per-rank sub-graphs for a
// measured point (elemsPerRank³ elements per rank; slab grid up to 8
// ranks, blocks beyond), shared by the goroutine and process tiers.
func measuredMesh(p, elemsPerRank, r int) (*mesh.Box, []*graph.Local, error) {
	strat := partition.Blocks
	if r <= 8 {
		strat = partition.Slabs
	}
	rx, ry, rz := rankGrid(r, strat)
	box, err := mesh.NewBox(rx*elemsPerRank, ry*elemsPerRank, rz*elemsPerRank, p,
		[3]bool{true, true, true})
	if err != nil {
		return nil, nil, err
	}
	locals, err := buildLocals(box, r, partition.Auto)
	if err != nil {
		return nil, nil, err
	}
	return box, locals, nil
}

// measuredRankBody is the per-rank measurement script of the measured
// tiers: one warm-up training iteration, then iters timed iterations
// bracketed by barriers. Both the goroutine tier (measuredStep) and the
// process tier (MeasuredProcs) run exactly this body, so their timing and
// traffic accounting cannot drift apart.
func measuredRankBody(c *comm.Comm, box *mesh.Box, l *graph.Local, mode comm.ExchangeMode, cfg gnn.Config, iters int) (elapsed time.Duration, perRun comm.Stats, nodes int64, err error) {
	rc, err := gnn.NewRankContext(c, box, l, mode)
	if err != nil {
		return 0, comm.Stats{}, 0, err
	}
	model, err := gnn.NewModel(cfg)
	if err != nil {
		return 0, comm.Stats{}, 0, err
	}
	trainer := gnn.NewTrainer(model, nn.NewAdam(1e-3))
	x := field.Sample(inputField(), rc.Graph, 0.25)
	// Warm-up iteration excluded from timing.
	trainer.Step(rc, x, x)
	base := c.Stats
	c.Barrier()
	start := time.Now()
	for it := 0; it < iters; it++ {
		trainer.Step(rc, x, x)
	}
	c.Barrier()
	elapsed = time.Since(start)
	perRun = c.Stats
	perRun.MessagesSent -= base.MessagesSent
	perRun.FloatsSent -= base.FloatsSent
	perRun.HaloSeconds -= base.HaloSeconds
	perRun.HaloExposedSeconds -= base.HaloExposedSeconds
	return elapsed, perRun, int64(rc.Graph.NumLocal()), nil
}

// measuredPoint assembles the report row from one rank's measurement.
func measuredPoint(cfg gnn.Config, mode comm.ExchangeMode, r int, nodes int64, secPerIter float64, stats comm.Stats, iters int) MeasuredPoint {
	return MeasuredPoint{
		Model:          cfg.Name,
		Mode:           mode,
		Overlap:        cfg.Overlap,
		Ranks:          r,
		NodesPerRank:   nodes,
		SecPerIter:     secPerIter,
		Throughput:     float64(r) * float64(nodes) / secPerIter,
		Messages:       stats.MessagesSent / int64(iters),
		Floats:         stats.FloatsSent / int64(iters),
		HaloSecPerIter: stats.HaloSeconds / float64(iters),
		ExposedPerIter: stats.HaloExposedSeconds / float64(iters),
	}
}

// MeasuredProcs runs one measured weak-scaling point with procs
// OS-process ranks connected over the socket fabric: the multi-process
// counterpart of one Fig7Measured row. The calling process coordinates as
// rank 0 (workers are re-execs of the same binary; see comm.RunProcs), so
// the returned point carries rank 0's timing and traffic counters. In a
// worker process the training runs collectively but the returned point is
// zero — only the coordinator reports.
func MeasuredProcs(p, elemsPerRank, procs int, cfg gnn.Config, mode comm.ExchangeMode, iters int) (MeasuredPoint, error) {
	box, locals, err := measuredMesh(p, elemsPerRank, procs)
	if err != nil {
		return MeasuredPoint{}, err
	}
	var pt MeasuredPoint
	err = comm.RunProcs(procs, func(c *comm.Comm) error {
		elapsed, stats, nodes, err := measuredRankBody(c, box, locals[c.Rank()], mode, cfg, iters)
		if err != nil || c.Rank() != 0 {
			return err
		}
		pt = measuredPoint(cfg, mode, procs, nodes, elapsed.Seconds()/float64(iters), stats, iters)
		return nil
	})
	return pt, err
}

// measuredStep runs iters full training iterations on r goroutine ranks
// and returns the per-iteration wall time (slowest rank) and rank-0
// traffic counters.
func measuredStep(box *mesh.Box, r int, mode comm.ExchangeMode, cfg gnn.Config, iters int) (secPerIter float64, stats comm.Stats, nodesPerRank int64, err error) {
	locals, err := buildLocals(box, r, partition.Auto)
	if err != nil {
		return 0, comm.Stats{}, 0, err
	}
	type out struct {
		d     time.Duration
		stats comm.Stats
		nodes int64
	}
	results, err := comm.RunCollect(r, func(c *comm.Comm) (out, error) {
		elapsed, perRun, nodes, err := measuredRankBody(c, box, locals[c.Rank()], mode, cfg, iters)
		if err != nil {
			return out{}, err
		}
		return out{d: elapsed, stats: perRun, nodes: nodes}, nil
	})
	if err != nil {
		return 0, comm.Stats{}, 0, err
	}
	var maxD time.Duration
	for _, o := range results {
		if o.d > maxD {
			maxD = o.d
		}
	}
	return maxD.Seconds() / float64(iters), results[0].stats, results[0].nodes, nil
}
