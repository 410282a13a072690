package gnn

import (
	"fmt"

	"meshgnn/internal/comm"
	"meshgnn/internal/tensor"
)

// ConsistentMSE implements the paper's consistent loss (Eq. 6):
//
//	L = AllReduce(S_r) / (N_eff · F_y),   S_r = Σ_i Σ_j (Y - Ŷ)²_{ij} / d_i
//
// Squared errors are scaled by the inverse node degree so coincident nodes
// appearing on several ranks contribute exactly once, and the
// normalization uses the effective node count N_eff = AllReduce(Σ 1/d_i),
// which equals the unpartitioned node count N. Evaluated on R ranks it
// recovers the R=1 MSE loss of Eq. 5 exactly.
//
// Forward is a local degree-scaled sum followed by one AllReduce and the
// normalization (N_eff is precomputed in the RankContext). The backward
// pass needs neither — the reduction is linear, so each rank's output
// gradient is purely local — which is what lets Trainer.Step skip the
// standalone reduction and carry the local sums in the tail of its
// gradient AllReduce instead. A single sample is a batch of one: the
// batched step shares every line below with the single-sample one.
type ConsistentMSE struct {
	// diff caches Y-Ŷ for the backward pass; diff, dy, sums and losses are
	// grow-only buffers reused across steps, so loss evaluation allocates
	// nothing once the largest batch has been seen.
	diff tensor.Matrix
	dy   tensor.Matrix
	rc   *RankContext

	// batch is the sample count of the most recent forward; it keys
	// Backward's row-block degree indexing.
	batch  int
	sums   []float64
	losses []float64
	one    [1]*tensor.Matrix // Forward's batch of one
}

// Forward returns the consistent loss. y and target are
// NumLocal×F_y node attribute matrices; all ranks must call collectively.
func (l *ConsistentMSE) Forward(rc *RankContext, y, target *tensor.Matrix) float64 {
	sums := l.localSums(rc, y, l.single(target))
	rc.Comm.AllReduceSum(sums)
	return l.normalise(sums)[0]
}

// single wraps one target as a batch of one without allocating.
func (l *ConsistentMSE) single(target *tensor.Matrix) []*tensor.Matrix {
	l.one[0] = target
	return l.one[:]
}

// localSums is the rank-local half of the forward pass over a stacked
// prediction: y is (batch·N_local)×F, targets the batch per-sample
// targets. It caches Y-Ŷ for the backward pass and returns the unreduced
// per-sample sums S_r in a buffer owned by the loss. Per sample the
// summation runs row-major over that sample's block, whatever the batch
// size, so B sums reduced as one vector (element-wise, ascending rank
// order) are bitwise the B scalar reductions.
func (l *ConsistentMSE) localSums(rc *RankContext, y *tensor.Matrix, targets []*tensor.Matrix) []float64 {
	batch := len(targets)
	per := rc.Graph.NumLocal()
	if y.Rows != batch*per {
		panic(fmt.Sprintf("gnn: loss rows %d, want %d·%d local nodes", y.Rows, batch, per))
	}
	l.rc = rc
	l.batch = batch
	l.diff.Resize(y.Rows, y.Cols)
	if cap(l.sums) < batch {
		l.sums = make([]float64, batch)
		l.losses = make([]float64, batch)
	}
	sums := l.sums[:batch]
	for b, target := range targets {
		if target.Rows != per || target.Cols != y.Cols {
			panic(fmt.Sprintf("gnn: loss target %dx%d, want %dx%d",
				target.Rows, target.Cols, per, y.Cols))
		}
		var s float64
		for i := 0; i < per; i++ {
			inv := 1 / rc.Graph.NodeDegree[i]
			yr, tr, dr := y.Row(b*per+i), target.Row(i), l.diff.Row(b*per+i)
			for j := range yr {
				d := yr[j] - tr[j]
				dr[j] = d
				s += float64(inv * d * d)
			}
		}
		sums[b] = s
	}
	return sums
}

// normalise turns the AllReduced per-sample sums of the most recent
// localSums into losses, in a buffer owned by the loss.
func (l *ConsistentMSE) normalise(sums []float64) []float64 {
	losses := l.losses[:len(sums)]
	for b, s := range sums {
		losses[b] = s / (l.rc.Neff * float64(l.diff.Cols))
	}
	return losses
}

// Backward returns dL/dY for the most recent forward pass, stacked like
// its prediction: each sample block's gradient depends on that sample
// alone. The matrix is owned by the loss and valid until the next Backward
// call.
func (l *ConsistentMSE) Backward() *tensor.Matrix {
	if l.rc == nil {
		panic("gnn: ConsistentMSE.Backward before Forward")
	}
	dy := &l.dy
	dy.Resize(l.diff.Rows, l.diff.Cols)
	per := dy.Rows / l.batch
	scale := 2 / (l.rc.Neff * float64(l.diff.Cols))
	for i := 0; i < dy.Rows; i++ {
		inv := scale / l.rc.Graph.NodeDegree[i%per]
		src, dst := l.diff.Row(i), dy.Row(i)
		for j, v := range src {
			dst[j] = inv * v
		}
	}
	return dy
}

// GlobalOutputs concatenates per-rank outputs by global node ID with
// coincident duplicates collapsed, reconstructing the unpartitioned
// output matrix (the "cat" of paper Eq. 2). Rank 0 returns the assembled
// matrix (rows indexed by global ID); other ranks return nil. Coincident
// copies must agree; the maximum discrepancy across duplicates
// (tensor.AbsDiff, so a NaN against a number reads +Inf) is returned on
// rank 0 as a consistency diagnostic.
func GlobalOutputs(rc *RankContext, y *tensor.Matrix, globalNodes int64) (*tensor.Matrix, float64) {
	c := rc.Comm
	cols := y.Cols
	// Serialize (gid, row...) tuples to rank 0.
	local := make([]float64, 0, y.Rows*(cols+1))
	for i := 0; i < y.Rows; i++ {
		local = append(local, float64(rc.Graph.GlobalIDs[i]))
		local = append(local, y.Row(i)...)
	}
	if c.Rank() != 0 {
		c.Send(0, comm.TagUser, local)
		return nil, 0
	}
	out := tensor.New(int(globalNodes), cols)
	filled := make([]bool, globalNodes)
	var maxDisc float64
	absorb := func(buf []float64) {
		for off := 0; off+cols < len(buf)+1; off += cols + 1 {
			gid := int(buf[off])
			row := buf[off+1 : off+1+cols]
			dst := out.Row(gid)
			if filled[gid] {
				for j, v := range row {
					if d := tensor.AbsDiff(v, dst[j]); d > maxDisc {
						maxDisc = d
					}
				}
				continue
			}
			copy(dst, row)
			filled[gid] = true
		}
	}
	absorb(local)
	for src := 1; src < c.Size(); src++ {
		absorb(c.Recv(src, comm.TagUser))
	}
	return out, maxDisc
}
