package gnn

import (
	"fmt"
	"time"

	"meshgnn/internal/nn"
	"meshgnn/internal/parallel"
	"meshgnn/internal/tensor"
)

// Trainer runs distributed-data-parallel training of a consistent GNN:
// every rank holds identical parameters, computes its local share of the
// consistent loss and its local gradient contribution, and both are
// summed across ranks by one deterministic AllReduce per step before the
// (identical) optimizer step. Because both loss and gradients satisfy the
// consistency equations, the optimization trajectory is invariant to the
// partitioning (paper Fig. 6, right).
type Trainer struct {
	Model *Model
	Opt   *nn.Adam
	Loss  ConsistentMSE

	// Batch, when > 1, makes Fit group each epoch's shuffled visit order
	// into runs of Batch consecutive samples and train each run with one
	// StepBatch — same sample stream, same noise stream, 1/Batch as many
	// optimizer steps. The accumulated B-sample gradient is bitwise-equal
	// to B sequential accumulation passes: batching buys amortization (one
	// AllReduce and one optimizer step per B samples), not different
	// arithmetic. 0 and 1 train per sample.
	Batch int

	timing    StepTiming
	gradBuf   []float64
	batchLoss []float64
	xsBuf     []*tensor.Matrix
	tsBuf     []*tensor.Matrix
	x1, t1    [1]*tensor.Matrix // Step's batch of one
}

// StepTiming is the accumulated per-phase breakdown of training steps:
// where an iteration's time goes, the decomposition behind the paper's
// communication-cost analysis. Halo is the wall time inside the halo
// exchanges (pack, post, wait, unpack), split out of the Forward and
// Backward phases it executes within, so those report pure compute.
// HaloExposed is the subset of Halo spent blocked on messages that had
// not yet arrived — the communication cost the rank failed to hide. With
// the synchronous exchange, HaloExposed ≈ the transfer time; the
// overlapped pipeline (Config.Overlap) shrinks it toward zero. Loss is the
// rank-local degree-scaled sum only: a step makes no standalone loss
// reduction, the sum rides in the gradient buffer and its wire time is
// booked under AllReduce.
type StepTiming struct {
	Forward, Halo, HaloExposed, Loss, Backward, AllReduce, Optimizer time.Duration
	Steps                                                            int
}

// Total returns the summed time across phases. HaloExposed is a subset of
// Halo, not an additional phase.
func (st StepTiming) Total() time.Duration {
	return st.Forward + st.Halo + st.Loss + st.Backward + st.AllReduce + st.Optimizer
}

// NewTrainer pairs a model with an Adam optimizer.
func NewTrainer(m *Model, opt *nn.Adam) *Trainer {
	return &Trainer{Model: m, Opt: opt}
}

// Timing returns the per-phase breakdown accumulated over every step the
// trainer has taken.
func (t *Trainer) Timing() StepTiming { return t.timing }

// Step executes one training iteration on one sample — StepBatch's batch
// of one — and returns the consistent loss value. All ranks must call
// Step collectively with their own x and target.
func (t *Trainer) Step(rc *RankContext, x, target *tensor.Matrix) float64 {
	t.x1[0], t.t1[0] = x, target
	return t.StepBatch(rc, t.x1[:], t.t1[:])[0]
}

// StepBatch executes one training iteration over len(xs) stacked samples:
// one fused forward, the local loss sums, one row-block backward, one
// AllReduce (the gradients with the B local loss sums in the buffer's
// tail), ONE optimizer step. The accumulated gradient
// is bitwise-equal to the sequential oracle that runs ZeroGrads once and
// then Forward/Loss/Backward per sample before the same single AllReduce +
// optimizer step. Returns the per-sample consistent losses in a
// trainer-owned buffer, valid until the next step. All ranks must call
// StepBatch collectively with the same batch size. The step is one op
// bracket of the worker pool (parallel.Begin).
func (t *Trainer) StepBatch(rc *RankContext, xs, targets []*tensor.Matrix) []float64 {
	if len(xs) == 0 || len(xs) != len(targets) {
		panic(fmt.Sprintf("gnn: StepBatch with %d inputs, %d targets", len(xs), len(targets)))
	}
	parallel.Begin()
	defer parallel.End()
	mark := time.Now()
	haloBase := rc.Comm.Stats.HaloSeconds
	exposedBase := rc.Comm.Stats.HaloExposedSeconds
	// lap books the phase's wall time, first peeling off any halo time the
	// comm layer accumulated during it (Forward/Backward run the
	// exchanges), so compute phases report compute only.
	lap := func(dst *time.Duration) {
		now := time.Now()
		d := now.Sub(mark)
		if h := rc.Comm.Stats.HaloSeconds; h > haloBase {
			hd := time.Duration((h - haloBase) * float64(time.Second))
			t.timing.Halo += hd
			d -= hd
			haloBase = h
		}
		if d > 0 {
			*dst += d
		}
		mark = now
	}
	t.Model.ZeroGrads()
	y := t.Model.forward(rc, xs)
	lap(&t.timing.Forward)
	sums := t.Loss.localSums(rc, y, targets)
	lap(&t.timing.Loss)
	t.Model.Backward(t.Loss.Backward())
	lap(&t.timing.Backward)
	losses := t.Loss.normalise(t.reduceGrads(rc, sums))
	lap(&t.timing.AllReduce)
	t.Opt.Step(t.Model.Params())
	lap(&t.timing.Optimizer)
	if e := rc.Comm.Stats.HaloExposedSeconds; e > exposedBase {
		t.timing.HaloExposed += time.Duration((e - exposedBase) * float64(time.Second))
	}
	t.timing.Steps++
	t.batchLoss = append(t.batchLoss[:0], losses...)
	return t.batchLoss
}

// reduceGrads is the step's one collective: the gradients are summed
// across ranks in place with the local loss sums riding in the tail of the
// same buffer (ConsistentMSE.Forward is the standalone-reduction oracle
// for the tail's bits). Returns the reduced sums, valid until the next
// step.
func (t *Trainer) reduceGrads(rc *RankContext, sums []float64) (reduced []float64) {
	t.gradBuf, reduced = nn.AllReduceGradientsWith(rc.Comm, t.Model.Params(), t.gradBuf, sums)
	return reduced
}

// Evaluate computes the consistent loss without touching gradients or
// parameters.
func (t *Trainer) Evaluate(rc *RankContext, x, target *tensor.Matrix) float64 {
	y := t.Model.Forward(rc, x)
	return t.Loss.Forward(rc, y, target)
}
