package gnn

import (
	"fmt"
	"math/rand"

	"meshgnn/internal/tensor"
)

// Dataset holds one rank's (input, target) snapshot pairs. All ranks hold
// the same number of samples (their local restrictions of the same global
// snapshots), so collective training steps stay aligned.
type Dataset struct {
	Inputs  []*tensor.Matrix
	Targets []*tensor.Matrix
}

// Add appends one sample pair.
func (d *Dataset) Add(x, y *tensor.Matrix) {
	if x.Rows != y.Rows {
		panic(fmt.Sprintf("gnn: sample rows %d vs %d", x.Rows, y.Rows))
	}
	d.Inputs = append(d.Inputs, x)
	d.Targets = append(d.Targets, y)
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.Inputs) }

// FitOptions configures Trainer.Fit.
type FitOptions struct {
	// Epochs is the number of passes over the dataset.
	Epochs int
	// ShuffleSeed drives the per-epoch sample permutation. The seed (and
	// hence the visit order) is identical on every rank, which keeps the
	// collective steps aligned; 0 disables shuffling.
	ShuffleSeed int64
	// NoiseSigma adds partition-consistent Gaussian input noise
	// (NoiseField) during training, the standard one-step-surrogate
	// stabilization. 0 disables.
	NoiseSigma float64
	// NoiseSeed keys the noise stream.
	NoiseSeed uint64
}

// Fit trains over the dataset and returns the mean consistent loss of
// each epoch. All ranks must call collectively with their local
// restriction of the same global dataset and identical options.
func (t *Trainer) Fit(rc *RankContext, ds *Dataset, opts FitOptions) []float64 {
	if ds.Len() == 0 {
		return nil
	}
	epochs := opts.Epochs
	if epochs < 1 {
		epochs = 1
	}
	losses := make([]float64, 0, epochs)
	order := make([]int, ds.Len())
	for i := range order {
		order[i] = i
	}
	for e := 0; e < epochs; e++ {
		if opts.ShuffleSeed != 0 {
			rng := rand.New(rand.NewSource(opts.ShuffleSeed + int64(e)))
			rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		}
		var sum float64
		// Consecutive runs of Batch samples from the shuffled order train
		// as one StepBatch each. A short tail trains as per-sample steps —
		// one optimizer step per leftover sample, which the goldens pin —
		// and Step is StepBatch of one, so the tail re-binds the model
		// twice an epoch: an arena re-record over kept slabs and headers
		// and a prefix of the static-edge tile, allocating nothing. The
		// sample stream and the per-visit noise stream do not depend on
		// Batch — only the optimizer-step boundaries move.
		batch := max(t.Batch, 1)
		for start := 0; start < len(order); start += batch {
			end := min(start+batch, len(order))
			xs, ts := t.xsBuf[:0], t.tsBuf[:0]
			for step := start; step < end; step++ {
				idx := order[step]
				x := ds.Inputs[idx]
				if opts.NoiseSigma > 0 {
					// Key the stream by (epoch, step) so each visit draws
					// fresh — but partition-invariant — noise.
					noisy := x.Clone()
					n := NoiseField(rc.Graph, x.Cols, opts.NoiseSigma,
						opts.NoiseSeed^uint64(e)<<32^uint64(step))
					tensor.AddScaled(noisy, 1, n)
					x = noisy
				}
				xs = append(xs, x)
				ts = append(ts, ds.Targets[idx])
			}
			t.xsBuf, t.tsBuf = xs, ts
			if len(xs) < batch {
				for i := range xs {
					sum += t.Step(rc, xs[i], ts[i])
				}
			} else {
				for _, l := range t.StepBatch(rc, xs, ts) {
					sum += l
				}
			}
		}
		losses = append(losses, sum/float64(ds.Len()))
	}
	return losses
}
