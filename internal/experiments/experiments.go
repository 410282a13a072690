// Package experiments contains one driver per table and figure of the
// paper's evaluation (Sec. III), producing the same rows and series the
// paper reports; cmd/scaling, cmd/consistency and cmd/meshinfo print
// them.
//
// Table II and the reduced-graph ablation are computed exactly from the
// partition geometry, analytically, up to the paper's 2048 ranks and
// 1.1e9 nodes. Fig. 7 and Fig. 8 are measured: real goroutine (or OS
// process) ranks train the full distributed GNN at laptop scale, timed by
// the wall clock, with exact per-iteration traffic counters.
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
// rank count. Following the paper's footnote, the partition is
// partition.Auto: slab ("vertical chunk") decomposition for R <= 8 and
// sub-cube blocks beyond. All statistics come from the analytic fast path
// (validated against materialized graphs), which is what makes the
// 2048-rank / 1.1e9-node row tractable on one machine.
func Table2(p, elemsPerRank int, rs []int) ([]Table2Row, error) {
	rows := make([]Table2Row, 0, len(rs))
	for _, r := range rs {
		box, cart, err := weakScalingMesh(p, elemsPerRank, r)
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

// weakScalingMesh builds the global periodic mesh of a weak-scaling
// configuration and its partition.Auto partition: the rank grid times
// elemsPerRank elements per rank along each axis, so every rank holds
// elemsPerRank³ elements.
func weakScalingMesh(p, elemsPerRank, r int) (*mesh.Box, *partition.Cartesian, error) {
	rx, ry, rz, err := rankGrid(r)
	if err != nil {
		return nil, nil, err
	}
	box, err := mesh.NewBox(rx*elemsPerRank, ry*elemsPerRank, rz*elemsPerRank, p,
		[3]bool{true, true, true})
	if err != nil {
		return nil, nil, err
	}
	cart, err := partition.NewCartesian(box, r, partition.Auto)
	if err != nil {
		return nil, nil, err
	}
	if cart.Rx != rx || cart.Ry != ry || cart.Rz != rz {
		return nil, nil, fmt.Errorf("experiments: partitioner chose %dx%dx%d, expected %dx%dx%d",
			cart.Rx, cart.Ry, cart.Rz, rx, ry, rz)
	}
	return box, cart, nil
}

// rankGrid is the process grid partition.Auto chooses for r ranks on a
// cube of r³ elements, where no axis is longer than another: r×1×1 slabs
// up to 8 ranks, the most cubic blocks beyond.
func rankGrid(r int) (rx, ry, rz int, err error) {
	cube, err := mesh.NewBox(r, r, r, 1, [3]bool{})
	if err != nil {
		return 0, 0, 0, err
	}
	cart, err := partition.NewCartesian(cube, r, partition.Auto)
	if err != nil {
		return 0, 0, 0, err
	}
	return cart.Rx, cart.Ry, cart.Rz, nil
}

// ---------------------------------------------------------------------------
// Fig. 7 / Fig. 8: the measured weak-scaling tier.

// MeasuredPoint is one point of the measured tier.
type MeasuredPoint struct {
	Model string
	Mode  comm.ExchangeMode
	// Overlap records whether the phased (overlapped) NMP pipeline was
	// active for this point.
	Overlap      bool
	Ranks        int
	NodesPerRank int64
	SecPerIter   float64
	// Throughput is total nodes/sec across ranks. On a single host the
	// ranks time-share cores, so absolute weak scaling is not
	// meaningful; the Relative column (vs no-exchange at the same R) is.
	Throughput float64
	Relative   float64
	// Messages and Floats are rank 0's sends per iteration, as the
	// fabric counted them.
	Messages int64
	Floats   int64
	// HaloSecPerIter is rank 0's wall time inside halo exchanges per
	// iteration; ExposedPerIter is the subset spent blocked on messages
	// that had not yet arrived (the communication cost not hidden behind
	// compute — the quantity the overlapped pipeline shrinks).
	HaloSecPerIter float64
	ExposedPerIter float64
}

// Fig7Measured runs the real distributed trainer on goroutine ranks over
// a small weak-scaling sweep, recording wall time and exact traffic for
// the no-exchange baseline and each of modes at every R. The relative
// column is Fig. 8 measured: throughput against no exchange at the same
// R. Each R's sub-graphs are built once and shared by its modes.
func Fig7Measured(p, elemsPerRank int, rs []int, cfg gnn.Config, modes []comm.ExchangeMode, iters int) ([]MeasuredPoint, error) {
	if err := checkIters(iters); err != nil {
		return nil, err
	}
	var out []MeasuredPoint
	for _, r := range rs {
		box, locals, err := measuredMesh(p, elemsPerRank, r)
		if err != nil {
			return nil, err
		}
		var noneTP float64
		for _, mode := range append([]comm.ExchangeMode{comm.NoExchange}, modes...) {
			sec, stats, nodes, err := measuredStep(box, locals, mode, cfg, iters)
			if err != nil {
				return nil, fmt.Errorf("R=%d mode %v: %w", r, mode, err)
			}
			pt := measuredPoint(cfg, mode, r, nodes, sec, stats, iters)
			if mode == comm.NoExchange {
				noneTP = pt.Throughput
			}
			pt.Relative = pt.Throughput / noneTP
			out = append(out, pt)
		}
	}
	return out, nil
}

// checkIters rejects a measurement with no timed iteration, whose
// per-iteration figures would divide by zero.
func checkIters(iters int) error {
	if iters < 1 {
		return fmt.Errorf("experiments: need >= 1 timed iteration, got %d", iters)
	}
	return nil
}

// measuredMesh builds the weak-scaling box and every rank's sub-graph for
// a measured point, shared by the goroutine and process tiers.
func measuredMesh(p, elemsPerRank, r int) (*mesh.Box, []*graph.Local, error) {
	box, cart, err := weakScalingMesh(p, elemsPerRank, r)
	if err != nil {
		return nil, nil, err
	}
	locals, err := graph.BuildAll(box, cart)
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
	if err := checkIters(iters); err != nil {
		return MeasuredPoint{}, err
	}
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

// measuredStep runs iters full training iterations on one goroutine rank
// per sub-graph and returns the per-iteration wall time (slowest rank)
// and rank-0 traffic counters.
func measuredStep(box *mesh.Box, locals []*graph.Local, mode comm.ExchangeMode, cfg gnn.Config, iters int) (secPerIter float64, stats comm.Stats, nodesPerRank int64, err error) {
	type out struct {
		d     time.Duration
		stats comm.Stats
		nodes int64
	}
	results, err := comm.RunCollect(len(locals), func(c *comm.Comm) (out, error) {
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
