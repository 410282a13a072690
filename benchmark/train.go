package main

import (
	"math"
	"sync/atomic"
	"time"

	"meshgnn"
	"meshgnn/internal/nn"
)

// trainRank is what one rank of a training world holds.
type trainRank struct {
	r  *meshgnn.Rank
	tr *meshgnn.Trainer
	w  *world
	id int
	// grads is the gradient buffer of the decomposed step.
	grads []float64
}

// sample returns the rank's input and target of operation i.
func (tk *trainRank) sample(i int) (x, y *meshgnn.Matrix) {
	s := i % len(tk.w.in)
	return tk.w.in[s][tk.id], tk.w.target[s][tk.id]
}

// step is the untraced operation: the library's own training step.
func (tk *trainRank) step(i int) (loss float64, traced bool) {
	x, y := tk.sample(i)
	return tk.tr.Step(tk.r.Ctx, x, y), false
}

// trainSession sets a training system up from nothing: mesh, partition,
// graphs, then on every rank the model, the optimizer and the first
// (cold) training step. ready is the time from the start until rank 0
// finished that step. body, when given, then runs on every rank.
func trainSession(sp spec, times []float64, extra func(meshgnn.Transport) meshgnn.Transport,
	body func(tk *trainRank) error) (ready time.Duration, w *world, err error) {
	t0 := time.Now()
	w, err = buildWorld(sp, times)
	if err != nil {
		return 0, nil, err
	}
	err = w.sys.RunOnWith(sp.fab, meshgnn.NeighborAllToAll, sp.wire(extra), func(r *meshgnn.Rank) error {
		model, err := meshgnn.NewModel(sp.config())
		if err != nil {
			return err
		}
		tk := &trainRank{r: r, tr: meshgnn.NewTrainer(model, meshgnn.NewAdam(1e-3)), w: w, id: r.ID()}
		tk.step(0)
		if tk.id == 0 {
			ready = time.Since(t0)
		}
		if body == nil {
			return nil
		}
		return body(tk)
	})
	return ready, w, err
}

// phase is one timed run of training steps. The ranks step in lockstep
// (every step ends in a collective), so rank 0 alone keeps the clock and
// decides when to stop: it publishes the step count to stop at, two steps
// ahead, which every rank reads before it can get there.
type phase struct {
	dur    time.Duration
	limit  atomic.Int64
	rec    *recorder
	losses []float64
}

func newPhase(dur time.Duration) *phase {
	p := &phase{dur: dur}
	p.limit.Store(math.MaxInt64)
	return p
}

// run executes the phase on one rank. g brackets it so that rank 0 reads
// the process meters while every rank is idle. step reports the loss and
// whether the step's spans were recorded.
func (p *phase) run(tk *trainRank, g *gate, meters bool, step func(i int) (float64, bool)) {
	g.wait()
	if tk.id == 0 {
		p.rec = startRecorder(meters)
	}
	g.wait()
	prev := p.rec.start
	for i := int64(0); i < p.limit.Load(); i++ {
		loss, traced := step(int(i))
		if tk.id != 0 {
			continue
		}
		now := time.Now()
		p.rec.op(prev, now.Sub(prev), traced)
		p.losses = append(p.losses, loss)
		prev = now
		if now.Sub(p.rec.start) >= p.dur && p.limit.Load() == math.MaxInt64 {
			p.limit.Store(i + 2)
		}
	}
	g.wait()
	if tk.id == 0 {
		p.rec.finish()
	}
	g.wait()
}

// warmSteps run between the cold first step and the first timed one.
const warmSteps = 2

func runTrain(sp spec, o options) (*report, error) {
	rep := &report{correct: true, values: map[string]float64{}}
	in := inputsFromSeed(sp, o)

	if !o.trace {
		setup, err := medianSetup(func() (time.Duration, error) {
			ready, _, err := trainSession(sp, in.times, nil, nil)
			return ready, err
		})
		if err != nil {
			return nil, err
		}
		rep.values["setup_s"] = setup
	}
	if err := verifyTrain(sp, in.times, o.trace, rep); err != nil {
		return nil, err
	}

	var (
		tr       *tracer
		counters *commCounters
		cursors  []rankCursor
		extra    func(meshgnn.Transport) meshgnn.Transport
	)
	if o.trace {
		tr, counters, cursors = newTracer(), &commCounters{}, make([]rankCursor, sp.ranks)
		for i := range cursors {
			cursors[i] = rankCursor{parent: root, op: -1}
		}
		extra = counters.wrap(tr, cursors)
	}
	g := newGate(sp.ranks)
	plain := newPhase(o.window())
	var traced *tracedPhase
	if o.trace {
		plain = newPhase(o.window() / 2)
		traced = &tracedPhase{phase: newPhase(o.window() / 2)}
	}
	_, w, err := trainSession(sp, in.times, extra, func(tk *trainRank) error {
		for i := 1; i <= warmSteps; i++ {
			tk.step(i)
		}
		plain.run(tk, g, o.trace, tk.step)
		if traced != nil {
			traced.run(tk, g, tr, counters, &cursors[tk.id])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	losses := plain.losses
	if traced != nil {
		losses = append(losses, traced.losses...)
	}
	rep.attempted = len(losses)
	for _, l := range losses {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			rep.failed++
		}
	}
	if rep.failed > 0 {
		rep.gateFailed("%d of %d timed losses are not finite", rep.failed, rep.attempted)
	}
	rep.notef("%d timed steps on %d nodes over %d ranks, loss %.6g -> %.6g; percentile supported by the sample: p%d",
		plain.rec.ops(), w.mesh.NumNodes(), sp.ranks, plain.losses[0], plain.losses[len(plain.losses)-1],
		supportedPercentile(plain.rec.ops()))

	if err := plain.rec.into(rep.values, w.nodes()); err != nil {
		return nil, err
	}
	if !o.trace {
		return rep, nil
	}

	traced.into(rep.values, plain, tr)
	if err := layerMetrics(sp, in.times, rep.values); err != nil {
		return nil, err
	}
	if o.traceOut != "" {
		if err := tr.write(o.traceOut); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// tracedPhase is a phase whose step is decomposed into the public calls
// Trainer.Step makes, with a span around each, and whose communication is
// read off the public per-rank counters and the counting interposer.
type tracedPhase struct {
	*phase
	comm      commCounts    // all ranks, from the interposer
	rank0     rankComm      // rank 0, from rc.Comm.Stats
	haloInFwd time.Duration // rank 0: halo-exchange time inside gnn.forward spans
	haloInBwd time.Duration
}

func (tp *tracedPhase) run(tk *trainRank, g *gate, tr *tracer, counters *commCounters, cur *rankCursor) {
	stats := &tk.r.Ctx.Comm.Stats
	var base commCounts
	var before rankComm
	g.wait()
	if tk.id == 0 {
		tr.enable(true)
		base, before = counters.read(), readRankComm(stats)
	}
	rankTracer := tr
	if tk.id != 0 {
		rankTracer = nil // rank 0's spans describe the step; the ranks run in lockstep
	}
	tp.phase.run(tk, g, false, func(i int) (float64, bool) {
		x, y := tk.sample(i)
		return tk.decomposedStep(rankTracer, cur, i, x, y, tp)
	})
	if tk.id == 0 {
		tr.enable(false)
		tp.comm = counters.read().sub(base)
		tp.rank0 = readRankComm(stats).sub(before)
	}
	g.wait()
}

// decomposedStep is Trainer.Step written out as the public calls it is
// made of (no clipping, no schedule: the benchmark uses neither). The
// traced gate checks its losses against Trainer.Step's bit for bit.
func (tk *trainRank) decomposedStep(tr *tracer, cur *rankCursor, op int, x, y *meshgnn.Matrix, tp *tracedPhase) (loss float64, traced bool) {
	t, rc := tk.tr, tk.r.Ctx
	step := tr.begin("train.step", root, op)
	cur.op = op
	span := func(name string, fn func()) {
		id := tr.begin(name, step, op)
		cur.parent = id
		halo := rc.Comm.Stats.HaloSeconds
		fn()
		tr.end(id)
		if tp != nil && id != off {
			d := time.Duration((rc.Comm.Stats.HaloSeconds - halo) * float64(time.Second))
			switch name {
			case "gnn.forward":
				tp.haloInFwd += d
			case "gnn.backward":
				tp.haloInBwd += d
			}
		}
	}
	var out *meshgnn.Matrix
	span("gnn.forward", func() {
		t.Model.ZeroGrads()
		out = t.Model.Forward(rc, x)
	})
	span("gnn.loss", func() { loss = t.Loss.Forward(rc, out, y) })
	span("gnn.backward", func() { t.Model.Backward(t.Loss.Backward()) })
	span("nn.allreduce_grads", func() { tk.grads = nn.AllReduceGradients(rc.Comm, t.Model.Params(), tk.grads) })
	span("nn.optimizer", func() { t.Opt.Step(t.Model.Params()) })
	cur.parent, cur.op = root, -1
	tr.end(step)
	return loss, step != off
}

// into writes the per-layer values a traced training run measures itself.
// Span times are per recorded step, counts per step of the whole phase:
// a step sends the same messages whether or not its spans are recorded.
func (tp *tracedPhase) into(values map[string]float64, plain *phase, tr *tracer) {
	spans := tr.snapshot()
	totals := totalsByName(spans)
	recorded := float64(totals["train.step"].Count)
	perRecorded := func(d time.Duration) float64 { return ms(d) / recorded }
	ops := float64(tp.rec.ops())
	perOp := func(d time.Duration) float64 { return ms(d) / ops }

	values["gnn.forward_ms"] = perRecorded(totals["gnn.forward"].Total - tp.haloInFwd)
	values["gnn.backward_ms"] = perRecorded(totals["gnn.backward"].Total - tp.haloInBwd)
	values["gnn.loss_ms"] = perRecorded(totals["gnn.loss"].Total)
	values["nn.allreduce_grads_ms"] = perRecorded(totals["nn.allreduce_grads"].Total)
	values["nn.optimizer_ms"] = perRecorded(totals["nn.optimizer"].Total)

	values["comm.msgs_per_op"] = float64(tp.comm.msgs) / ops
	values["comm.bytes_per_op"] = float64(tp.comm.bytes) / ops
	values["comm.send_ms_per_op"] = perOp(tp.comm.send)
	// Training sends the same messages every step, so one step's count is
	// the window's count divided by its steps, exactly.
	values["comm.msgs_per_eval"] = float64(tp.comm.msgs) / ops
	values["comm.bytes_per_eval"] = float64(tp.comm.bytes) / ops
	values["comm.allreduces_per_op"] = float64(tp.rank0.AllReduces) / ops
	values["comm.halo_ms_per_op"] = perOp(tp.rank0.Halo)
	values["comm.halo_exposed_ms_per_op"] = perOp(tp.rank0.HaloExposed)
	// Time the recorded steps spend communicating: the halo exchanges
	// (all of them happen inside forward and backward), the gradient
	// all-reduce and the loss reduction (the loss span is one all-reduce
	// around a sum over the rank's nodes).
	commTime := tp.haloInFwd + tp.haloInBwd + totals["nn.allreduce_grads"].Total + totals["gnn.loss"].Total
	values["comm.time_share"] = commTime.Seconds() / totals["train.step"].Total.Seconds()

	values["gnn.allocs_per_op"] = plain.rec.allocsPerOp()
	values["trace.overhead_share"] = tp.rec.traceOverhead()
	values["trace.spans"] = float64(len(spans))
}
