package meshgnn

import (
	"errors"
	"math"
	"runtime/debug"
	"slices"
	"sync"
	"testing"
	"time"

	"meshgnn/internal/parallel"
)

// refForward computes the collective training-model forward for the given
// snapshots — the bitwise reference every served prediction must match
// regardless of how requests were batched.
func refForward(t *testing.T, sys *System, inputs []*Matrix) []*Matrix {
	t.Helper()
	want, err := RunCollect(sys, NeighborAllToAll, func(r *Rank) (*Matrix, error) {
		m, err := NewModel(SmallConfig())
		if err != nil {
			return nil, err
		}
		return m.Forward(r.Ctx, inputs[r.ID()]).Clone(), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return want
}

func bitEqual(a, b *Matrix) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// perturbed derives a distinct request from the base snapshots so leaked
// or crossed results are detectable bitwise.
func perturbed(inputs []*Matrix, delta float64) []*Matrix {
	out := make([]*Matrix, len(inputs))
	for r, x := range inputs {
		c := x.Clone()
		for i := range c.Data {
			c.Data[i] += delta
		}
		out[r] = c
	}
	return out
}

// TestServePredictSteadyStateAllocBudget gates the request hot path: with
// pooled request scaffolding, pooled deadline timers, and the engine's
// zero-allocation forward, a steady-state Predict allocates only what
// escapes to the caller — the result slice and one cloned output matrix
// per rank.
func TestServePredictSteadyStateAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	parallel.Configure(1, true)
	defer parallel.Configure(0, true)
	sys, model, inputs := serveSystem(t)
	srv, err := sys.Serve(InProcess, NeighborAllToAll, model)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for i := 0; i < 3; i++ { // bind the engines, warm the pools
		if _, err := srv.Predict(inputs); err != nil {
			t.Fatal(err)
		}
	}
	gcPercent := debug.SetGCPercent(-1) // keep sync.Pool contents stable
	defer debug.SetGCPercent(gcPercent)
	n := testing.AllocsPerRun(10, func() {
		if _, err := srv.Predict(inputs); err != nil {
			t.Fatal(err)
		}
	})
	// 1 escaping result slice + 2 (header + data) per cloned rank output,
	// plus one spare for runtime noise.
	budget := float64(2 + 2*sys.Ranks)
	if n > budget {
		t.Errorf("steady-state Predict allocates %v times per request, budget %v", n, budget)
	}
}

// TestServeBatchedPredictCoalesces checks the serving tentpole end to
// end: concurrent submitters meeting in the batching window share one
// fused collective evaluation — the transport cost of B requests equals
// the cost of one (halo frames are batch-packed, message count is
// batch-invariant) — and every member still gets its own bitwise-correct
// result.
func TestServeBatchedPredictCoalesces(t *testing.T) {
	setupOps := calibrateServeSetupOps(t)
	sys, model, inputs := serveSystem(t)
	const B = 4
	reqInputs := make([][]*Matrix, B)
	wants := make([][]*Matrix, B)
	for b := range reqInputs {
		reqInputs[b] = perturbed(inputs, 0.1*float64(b))
		wants[b] = refForward(t, sys, reqInputs[b])
	}
	fts := make([]*FaultTransport, sys.Ranks)
	srv, err := sys.ServeWith(InProcess, NeighborAllToAll, model, ServeOptions{
		MaxBatch:    B,
		BatchWindow: 500 * time.Millisecond,
		WrapTransport: func(tr Transport) Transport {
			ft := NewFaultTransport(tr, nil)
			fts[ft.Rank()] = ft
			return ft
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Solo warm-up: the transport cost of one collective evaluation.
	if _, err := srv.Predict(reqInputs[0]); err != nil {
		t.Fatal(err)
	}
	soloOps := fts[0].Ops() - setupOps
	base := fts[0].Ops()

	var wg sync.WaitGroup
	outs := make([][]*Matrix, B)
	errs := make([]error, B)
	for b := 0; b < B; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			outs[b], errs[b] = srv.Predict(reqInputs[b])
		}(b)
	}
	wg.Wait()
	for b := 0; b < B; b++ {
		if errs[b] != nil {
			t.Fatalf("batched member %d failed: %v", b, errs[b])
		}
		for r := range outs[b] {
			if !bitEqual(outs[b][r], wants[b][r]) {
				t.Errorf("member %d rank %d: batched result differs bitwise from the model forward", b, r)
			}
		}
	}
	if batchedOps := fts[0].Ops() - base; batchedOps != soloOps {
		t.Errorf("%d concurrent requests cost %d transport ops, one request costs %d — requests did not coalesce into one collective",
			B, batchedOps, soloOps)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestServeBatchMemberTimeoutIsolation pins the per-member deadline
// contract: when a stall makes one member of a fused batch overrun its
// deadline, that member alone returns ErrTimeout — its cohabitant with no
// deadline still gets a bitwise-correct result, and the server stays
// healthy for later requests.
func TestServeBatchMemberTimeoutIsolation(t *testing.T) {
	setupOps := calibrateServeSetupOps(t)
	sys, model, inputs := serveSystem(t)
	impatient := perturbed(inputs, 0.2)
	wantPatient := refForward(t, sys, inputs)
	plan := NewFaultPlan().Add(0, FaultEvent{
		AfterOps: setupOps, Kind: FaultDelay, Peer: -1, Delay: 300 * time.Millisecond,
	})
	srv, err := sys.ServeWith(InProcess, NeighborAllToAll, model, ServeOptions{
		MaxBatch:      2,
		BatchWindow:   500 * time.Millisecond,
		WrapTransport: plan.Wrap,
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var impatientErr, patientErr error
	var patientOuts []*Matrix
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, impatientErr = srv.PredictTimeout(impatient, 30*time.Millisecond)
	}()
	go func() {
		defer wg.Done()
		patientOuts, patientErr = srv.Predict(inputs)
	}()
	wg.Wait()
	if !errors.Is(impatientErr, ErrTimeout) {
		t.Fatalf("impatient member: want ErrTimeout, got %v", impatientErr)
	}
	if patientErr != nil {
		t.Fatalf("patient member poisoned by its cohabitant's timeout: %v", patientErr)
	}
	for r := range patientOuts {
		if !bitEqual(patientOuts[r], wantPatient[r]) {
			t.Errorf("rank %d: patient member's result differs bitwise from the model forward", r)
		}
	}
	// The timed-out member was dropped, not escalated: the fabric is
	// still synchronized and keeps serving.
	if _, err := srv.Predict(inputs); err != nil {
		t.Fatalf("request after a member timeout: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("close after a member timeout: %v", err)
	}
}

// TestServeCloseDrainsPendingWindow pins the shutdown contract for the
// coalescer: requests parked in an open batching window when Close
// arrives are dispatched and answered, not dropped.
func TestServeCloseDrainsPendingWindow(t *testing.T) {
	sys, model, inputs := serveSystem(t)
	other := perturbed(inputs, 0.3)
	want0 := refForward(t, sys, inputs)
	want1 := refForward(t, sys, other)
	srv, err := sys.ServeWith(InProcess, NeighborAllToAll, model, ServeOptions{
		MaxBatch:    8,
		BatchWindow: 10 * time.Second, // would outlive the test: Close must cut it short
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	outs := make([][]*Matrix, 2)
	errs := make([]error, 2)
	for i, in := range [][]*Matrix{inputs, other} {
		wg.Add(1)
		go func(i int, in []*Matrix) {
			defer wg.Done()
			outs[i], errs[i] = srv.Predict(in)
		}(i, in)
	}
	time.Sleep(100 * time.Millisecond) // both requests parked in the window
	if err := srv.Close(); err != nil {
		t.Fatalf("Close with a pending batching window: %v", err)
	}
	wg.Wait()
	for i, want := range [][]*Matrix{want0, want1} {
		if errs[i] != nil {
			t.Fatalf("parked request %d was not drained: %v", i, errs[i])
		}
		for r := range outs[i] {
			if !bitEqual(outs[i][r], want[r]) {
				t.Errorf("request %d rank %d: drained result differs bitwise from the model forward", i, r)
			}
		}
	}
}

// TestServeBatchWindowCostsItsLength holds a partial batch's window to
// its length: a lone Predict on a MaxBatch 8 server with a 200µs window
// takes, in the median, less than 0.7 ms longer than on a MaxBatch 1
// server, which opens no window. A runtime timer rounds a wait under a
// millisecond up to a whole one on an idle process, so a window kept on
// a timer reads about 1 ms here.
func TestServeBatchWindowCostsItsLength(t *testing.T) {
	if raceEnabled {
		// Under the race detector a polled 200µs window adds 0.9–1.5 ms
		// to a lone Predict in most runs (a 1ns window adds nothing), so
		// the bound cannot tell a kept window from a timer-kept one.
		t.Skip("race-detector instrumentation distorts the latency")
	}
	sys, model, inputs := serveSystem(t)
	const window = 200 * time.Microsecond
	solo, err := sys.ServeWith(InProcess, NeighborAllToAll, model, ServeOptions{MaxBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer solo.Close()
	batched, err := sys.ServeWith(InProcess, NeighborAllToAll, model, ServeOptions{MaxBatch: 8, BatchWindow: window})
	if err != nil {
		t.Fatal(err)
	}
	defer batched.Close()
	timed := func(srv *Server) time.Duration {
		start := time.Now()
		if _, err := srv.Predict(inputs); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	timed(solo) // warm-up: the sessions' first evaluations
	timed(batched)
	const n = 41
	var soloT, batchedT []time.Duration
	for i := 0; i < n; i++ { // alternate which server goes first
		if i%2 == 0 {
			soloT = append(soloT, timed(solo))
			batchedT = append(batchedT, timed(batched))
		} else {
			batchedT = append(batchedT, timed(batched))
			soloT = append(soloT, timed(solo))
		}
	}
	median := func(ds []time.Duration) time.Duration {
		slices.Sort(ds)
		return ds[len(ds)/2]
	}
	ms, mb := median(soloT), median(batchedT)
	t.Logf("lone Predict median: MaxBatch 1 %v, MaxBatch 8 with a %v window %v", ms, window, mb)
	if mb-ms >= 700*time.Microsecond {
		t.Errorf("a %v window costs a lone Predict %v in the median (MaxBatch 1 %v, MaxBatch 8 %v); want < 0.7 ms",
			window, mb-ms, ms, mb)
	}
}

// TestServeBatchFillsWhileRanksBusy pins what a partial batch does when
// its window has passed while the ranks still evaluate the previous
// batch: it cannot leave yet, so a request arriving in the meantime joins
// it. Rank 0 stalls 150ms in the first evaluation; a second request opens
// a window in that time and a third arrives long after the window ended.
// The two share one collective evaluation, and every answer is bitwise
// the model forward.
func TestServeBatchFillsWhileRanksBusy(t *testing.T) {
	setupOps := calibrateServeSetupOps(t)
	sys, model, inputs := serveSystem(t)
	reqs := [][]*Matrix{inputs, perturbed(inputs, 0.1), perturbed(inputs, 0.2)}
	wants := make([][]*Matrix, len(reqs))
	for i, in := range reqs {
		wants[i] = refForward(t, sys, in)
	}
	fts := make([]*FaultTransport, sys.Ranks)
	srv, err := sys.ServeWith(InProcess, NeighborAllToAll, model, ServeOptions{
		MaxBatch: 8, // the default 200µs window
		WrapTransport: func(tr Transport) Transport {
			var evs []FaultEvent
			if tr.Rank() == 0 {
				evs = []FaultEvent{{AfterOps: setupOps, Kind: FaultDelay, Peer: -1, Delay: 150 * time.Millisecond}}
			}
			ft := NewFaultTransport(tr, evs)
			fts[ft.Rank()] = ft
			return ft
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ses := srv.sessions[0]
	var wg sync.WaitGroup
	outs := make([][]*Matrix, len(reqs))
	errs := make([]error, len(reqs))
	for i, in := range reqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i], errs[i] = srv.Predict(in)
		}()
		if i == len(reqs)-1 {
			break
		}
		// The request is admitted and taken into a window, and that
		// window has passed. Rank 0's stall keeps the first one in
		// flight meanwhile.
		for ses.inflight.Load() < int64(i+1) || len(ses.queue) > 0 {
			time.Sleep(time.Millisecond)
		}
		time.Sleep(20 * time.Millisecond)
	}
	wg.Wait()
	for i := range reqs {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		for r := range outs[i] {
			if !bitEqual(outs[i][r], wants[i][r]) {
				t.Errorf("request %d rank %d: result differs bitwise from the model forward", i, r)
			}
		}
	}
	served := fts[0].Ops() - setupOps
	if _, err := srv.Predict(inputs); err != nil {
		t.Fatal(err)
	}
	solo := fts[0].Ops() - setupOps - served
	if served != 2*solo {
		t.Errorf("3 requests cost %d transport ops, one evaluation costs %d: want 2 evaluations, the last two requests fused", served, solo)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestServeRolloutScalesRecvDeadline pins the satellite fix for long
// rollouts: the per-rank receive deadline scales with the step count, so
// a healthy-but-slow multi-step trajectory no longer classifies as
// ErrTimeout under a receive bound sized for a single prediction.
func TestServeRolloutScalesRecvDeadline(t *testing.T) {
	setupOps := calibrateServeSetupOps(t)
	sys, model, inputs := serveSystem(t)
	// Stall rank 0 for 400ms at the start of the rollout: longer than the
	// single-step 150ms bound (the old behavior failed here), comfortably
	// inside the step-scaled 4×150ms bound.
	plan := NewFaultPlan().Add(0, FaultEvent{
		AfterOps: setupOps, Kind: FaultDelay, Peer: -1, Delay: 400 * time.Millisecond,
	})
	srv, err := sys.ServeWith(InProcess, NeighborAllToAll, model, ServeOptions{
		RecvTimeout:   150 * time.Millisecond,
		WrapTransport: plan.Wrap,
	})
	if err != nil {
		t.Fatal(err)
	}
	const steps = 4
	trajs, err := srv.Rollout(inputs, steps) // no request deadline
	if err != nil {
		t.Fatalf("slow-rank rollout spuriously classified: %v", err)
	}
	preds, err := srv.Predict(inputs) // fault consumed; clean single step
	if err != nil {
		t.Fatal(err)
	}
	for r, traj := range trajs {
		if len(traj) != steps+1 {
			t.Fatalf("rank %d: trajectory has %d states, want %d", r, len(traj), steps+1)
		}
		if !bitEqual(traj[1], preds[r]) {
			t.Errorf("rank %d: rollout step 1 differs bitwise from Predict", r)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestServeAbandonedRequestBuffersIsolated is the regression test for the
// late-writer hazard: a submitter abandons a request on deadline while
// the ranks are still evaluating it, and the very next request — issued
// while the late writes are still pending — must come back bitwise-exact.
// The orphaned request's scaffolding may only be recycled after the ranks
// stop writing into it.
func TestServeAbandonedRequestBuffersIsolated(t *testing.T) {
	setupOps := calibrateServeSetupOps(t)
	sys, model, inputs := serveSystem(t)
	abandoned := perturbed(inputs, 0.5)
	want := refForward(t, sys, inputs)
	plan := NewFaultPlan().Add(0, FaultEvent{
		AfterOps: setupOps, Kind: FaultDelay, Peer: -1, Delay: 300 * time.Millisecond,
	})
	srv, err := sys.ServeWith(InProcess, NeighborAllToAll, model, ServeOptions{
		WrapTransport: plan.Wrap,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The evaluation stalls 300ms; the caller walks away at 50ms. The
	// receive bound (default 30s) keeps the evaluation alive, so the
	// ranks finish late and write into the orphaned request.
	if _, err := srv.PredictTimeout(abandoned, 50*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("abandoned request: want ErrTimeout, got %v", err)
	}
	// Submit the next request immediately — while the late writes are
	// still in flight — with different inputs, so any aliasing between
	// the abandoned buffers and this request shows up bitwise.
	got, err := srv.Predict(inputs)
	if err != nil {
		t.Fatalf("request after an abandoned one: %v", err)
	}
	for r := range got {
		if !bitEqual(got[r], want[r]) {
			t.Errorf("rank %d: result after an abandoned request differs bitwise — late writes leaked into a live request", r)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}
