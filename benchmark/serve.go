package main

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"meshgnn"
	"meshgnn/internal/experiments"
)

var errWrongBits = errors.New("reply differs from the reference")

// serving is a started Server with the references its replies are
// checked against.
type serving struct {
	sp  spec
	w   *world
	srv *meshgnn.Server
	tr  *tracer

	// ref[snapshot][rank] is Model.Forward of the snapshot on the same
	// partition; refTraj[snapshot][rank][state] the training-path rollout.
	ref     [][]*meshgnn.Matrix
	refTraj [][][]*meshgnn.Matrix

	mu    sync.Mutex
	first [][][]*meshgnn.Matrix // float32 rollouts: the first answer per snapshot
}

// startServer sets a serving system up from nothing: mesh, partition,
// graphs, model, the compiled engine behind a started Server, and one
// answered request per session (the first request binds a session's
// engine to its graph). ready is the time all of that took.
func startServer(sp spec, times []float64, extra func(meshgnn.Transport) meshgnn.Transport) (sv *serving, ready time.Duration, err error) {
	t0 := time.Now()
	w, err := buildWorld(sp, times)
	if err != nil {
		return nil, 0, err
	}
	model, err := meshgnn.NewModel(sp.config())
	if err != nil {
		return nil, 0, err
	}
	srv, err := w.sys.ServeWith(sp.fab, meshgnn.NeighborAllToAll, model, meshgnn.ServeOptions{
		Sessions:       sp.sessions,
		MaxBatch:       sp.maxBatch,
		RequestTimeout: requestTimeout,
		WrapTransport:  sp.wire(extra),
	})
	if err != nil {
		return nil, 0, err
	}
	sv = &serving{sp: sp, w: w, srv: srv}
	if err := sv.burst(sp.sessions); err != nil {
		srv.Close()
		return nil, 0, err
	}
	return sv, time.Since(t0), nil
}

// burst sends n concurrent requests and waits for them. The server routes
// each to its least-loaded session, so a burst of Sessions reaches them
// all.
func (sv *serving) burst(n int) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = sv.call(i, root)
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// call sends operation i without checking the answer.
func (sv *serving) call(i, parent int) error {
	_, _, err := sv.send(i, parent)
	return err
}

func (sv *serving) send(i, parent int) (outs []*meshgnn.Matrix, trajs [][]*meshgnn.Matrix, err error) {
	in := sv.w.in[i%len(sv.w.in)]
	if sv.sp.kind == kindRollout {
		id := sv.tr.begin("serve.rollout", parent, i)
		trajs, err = sv.srv.Rollout(in, sv.sp.rolloutSteps)
		sv.tr.end(id)
		return nil, trajs, err
	}
	id := sv.tr.begin("serve.predict", parent, i)
	outs, err = sv.srv.Predict(in)
	sv.tr.end(id)
	return outs, nil, err
}

// do is the timed operation: send request i and check the answer.
func (sv *serving) do(i, parent int) error {
	outs, trajs, err := sv.send(i, parent)
	if err != nil {
		return err
	}
	snap := i % len(sv.w.in)
	if sv.sp.kind == kindRollout {
		return sv.checkRollout(snap, trajs)
	}
	for r, y := range outs {
		if !y.Equal(sv.ref[snap][r]) {
			return errWrongBits
		}
	}
	return nil
}

// checkRollout holds a float64 trajectory to the training-path rollout
// bit for bit. A float32 trajectory must stay within the library's own
// float32 tolerance of it over the first states (further on, the
// untrained model amplifies rounding and the distance says nothing about
// the kernels) and must repeat its own first answer bit for bit.
func (sv *serving) checkRollout(snap int, trajs [][]*meshgnn.Matrix) error {
	ref := sv.refTraj[snap]
	if sv.sp.config().Precision != meshgnn.Float32 {
		for r := range trajs {
			if len(trajs[r]) != len(ref[r]) {
				return errWrongBits
			}
			for s, y := range trajs[r] {
				if !y.Equal(ref[r][s]) {
					return errWrongBits
				}
			}
		}
		return nil
	}
	for r := range trajs {
		for s := 1; s < len(trajs[r]) && s <= experiments.F32RolloutGateSteps; s++ {
			if d := maxRelDiff(trajs[r][s], ref[r][s]); !(d <= experiments.F32Tolerance) {
				return fmt.Errorf("float32 state %d is %.3g from float64, tolerance %.3g", s, d, experiments.F32Tolerance)
			}
		}
	}
	sv.mu.Lock()
	first := sv.first[snap]
	if first == nil {
		sv.first[snap] = trajs
	}
	sv.mu.Unlock()
	for r := range first {
		for s, y := range first[r] {
			if !y.Equal(trajs[r][s]) {
				return errWrongBits
			}
		}
	}
	return nil
}

// maxRelDiff is max |a-b| / (1+|b|), the library's float32 gate metric.
func maxRelDiff(a, b *meshgnn.Matrix) float64 {
	var worst float64
	for i, v := range b.Data {
		if d := math.Abs(a.Data[i]-v) / (1 + math.Abs(v)); d > worst || math.IsNaN(d) {
			worst = d
		}
	}
	return worst
}

// references computes what every reply is checked against, on the
// workload's own partition over the channel fabric.
func (sv *serving) references() error {
	cfg := sv.sp.config()
	n := len(sv.w.in)
	sv.ref = make([][]*meshgnn.Matrix, n)
	sv.refTraj = make([][][]*meshgnn.Matrix, n)
	sv.first = make([][][]*meshgnn.Matrix, n)
	for s := 0; s < n; s++ {
		sv.ref[s] = make([]*meshgnn.Matrix, sv.sp.ranks)
		sv.refTraj[s] = make([][]*meshgnn.Matrix, sv.sp.ranks)
	}
	return sv.w.sys.Run(meshgnn.NeighborAllToAll, func(r *meshgnn.Rank) error {
		model, err := meshgnn.NewModel(cfg)
		if err != nil {
			return err
		}
		for s := 0; s < n; s++ {
			x := sv.w.in[s][r.ID()]
			if sv.sp.kind == kindRollout {
				sv.refTraj[s][r.ID()] = meshgnn.Rollout(model, r.Ctx, x, sv.sp.rolloutSteps)
			} else {
				sv.ref[s][r.ID()] = model.Forward(r.Ctx, x).Clone()
			}
		}
		return nil
	})
}

// traffic generates one window of the workload's traffic.
func (sv *serving) traffic(in inputs, window time.Duration, meters bool) *load {
	if sv.sp.rate > 0 {
		return openLoop(in.sched, sv.tr, meters, sv.do)
	}
	return closedLoop(sv.sp.clients, window, sv.tr, meters, sv.do)
}

// warmShare is the share of a window's length (and, open loop, of its
// schedule) that the warm-up before it replays: one part in warmShare.
const warmShare = 5

func runServe(sp spec, o options) (*report, error) {
	rep := &report{correct: true, values: map[string]float64{}}
	in := inputsFromSeed(sp, o)

	if !o.trace {
		setup, err := medianSetup(func() (time.Duration, error) {
			sv, ready, err := startServer(sp, in.times, nil)
			if err != nil {
				return 0, err
			}
			return ready, sv.srv.Close()
		})
		if err != nil {
			return nil, err
		}
		rep.values["setup_s"] = setup
	}

	var (
		tr       *tracer
		counters *commCounters
		extra    func(meshgnn.Transport) meshgnn.Transport
	)
	if o.trace {
		tr, counters = newTracer(), &commCounters{}
		extra = counters.wrap(tr, nil)
	}
	sv, ready, err := startServer(sp, in.times, extra)
	if err != nil {
		return nil, err
	}
	defer sv.srv.Close()
	sv.tr = tr
	if err := sv.references(); err != nil {
		return nil, err
	}
	window := o.window()
	if o.trace {
		window /= 2
	}
	// Warm up with the workload's own traffic, so that the batch sizes it
	// produces have been seen (each new size binds new engine buffers).
	warm := in
	if n := len(in.sched) / warmShare; n > 0 {
		warm.sched = in.sched[:n]
	}
	if l := sv.traffic(warm, window/warmShare, false); l.failed > 0 {
		return nil, fmt.Errorf("warm-up: %d of %d requests failed", l.failed, l.sent)
	}
	plain := sv.traffic(in, window, o.trace)
	loads := []*load{plain}
	var traced *load
	var eval, during commCounts
	if o.trace {
		// One request on the idle server is one collective evaluation.
		base := counters.read()
		if err := sv.do(0, root); err != nil {
			return nil, fmt.Errorf("isolated request: %w", err)
		}
		eval = counters.read().sub(base)

		base = counters.read()
		tr.enable(true)
		traced = sv.traffic(in, window, false)
		tr.enable(false)
		during = counters.read().sub(base)
		loads = append(loads, traced)
	}
	closeStart := time.Now()
	if err := sv.srv.Close(); err != nil {
		rep.gateFailed("server close: %v", err)
	}
	closeTook := time.Since(closeStart)

	for _, l := range loads {
		rep.attempted += l.sent
		rep.failed += l.failed
	}
	if rep.failed > 0 {
		rep.gateFailed("%d of %d requests failed, were refused or answered wrongly", rep.failed, rep.attempted)
	}
	if plain.rec.ops() == 0 {
		return nil, fmt.Errorf("no request completed")
	}
	rep.notef("%d requests sent, %d failed; percentile supported by the sample: p%d",
		plain.sent, plain.failed, supportedPercentile(plain.rec.ops()))
	if sp.rate > 0 {
		rep.notef("%d of them failed or took longer than the %v limit", plain.sloMiss, latencyLimit)
	}

	nodesPerOp := sv.w.nodes() * float64(sp.opSteps())
	if err := plain.rec.into(rep.values, nodesPerOp); err != nil {
		return nil, err
	}
	if !o.trace {
		return rep, nil
	}

	v := rep.values
	ops := float64(traced.rec.ops())
	v["comm.msgs_per_op"] = float64(during.msgs) / ops
	v["comm.bytes_per_op"] = float64(during.bytes) / ops
	v["comm.send_ms_per_op"] = ms(during.send) / ops
	v["comm.msgs_per_eval"] = float64(eval.msgs)
	v["comm.bytes_per_eval"] = float64(eval.bytes)
	// The message count of an evaluation does not depend on how many
	// requests it carries, so messages count evaluations exactly.
	v["serve.batch_mean"] = 1
	if eval.msgs > 0 {
		v["serve.batch_mean"] = ops / (float64(during.msgs) / float64(eval.msgs))
	}
	v["serve.start_s"] = ready.Seconds()
	v["serve.close_s"] = closeTook.Seconds()
	v["loadgen.inflight_max"] = float64(traced.inflightMax)
	if sp.rate > 0 { // the schedule's books; a closed loop has none
		v["loadgen.sent"] = float64(traced.sent)
		v["loadgen.slo_miss_share"] = float64(traced.sloMiss) / float64(traced.sent)
		v["loadgen.late_p95_ms"] = quantile(sortedCopy(traced.lateMS), 0.95)
	}
	v["gnn.allocs_per_op"] = plain.rec.allocsPerOp()
	v["trace.overhead_share"] = traced.rec.traceOverhead()
	v["trace.spans"] = float64(len(tr.snapshot()))
	if err := layerMetrics(sp, in.times, v); err != nil {
		return nil, err
	}
	v["serve.overhead_ms"] = v["op_p50_ms"] - float64(sp.opSteps())*v["gnn.infer_b1_ms"]
	if o.traceOut != "" {
		if err := tr.write(o.traceOut); err != nil {
			return nil, err
		}
	}
	return rep, nil
}
