package meshgnn

import (
	"errors"
	"math"
	"runtime"
	"testing"
	"time"

	"meshgnn/internal/parallel"
)

// serveSystem builds a small 2-rank system plus per-rank snapshots.
func serveSystem(t *testing.T) (*System, *Model, []*Matrix) {
	t.Helper()
	m, err := NewMesh(3, 3, 3, 2, FullyPeriodic)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(m, 2, Slabs)
	if err != nil {
		t.Fatal(err)
	}
	model, err := NewModel(SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	f := TaylorGreen{V0: 1, L: 1, Nu: 0.01}
	inputs := make([]*Matrix, sys.Ranks)
	for r := range inputs {
		inputs[r] = SampleField(f, sys.Locals[r], 0.25)
	}
	return sys, model, inputs
}

// TestServePredictMatchesModelForward drives the request API end to end
// on both goroutine transports and checks the served predictions equal a
// direct collective Model.Forward bitwise.
func TestServePredictMatchesModelForward(t *testing.T) {
	sys, model, inputs := serveSystem(t)

	// Reference: the training model evaluated collectively.
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

	for _, kind := range []TransportKind{InProcess, Sockets} {
		srv, err := sys.Serve(kind, NeighborAllToAll, model)
		if err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ { // second pass reuses the bound engines
			got, err := srv.Predict(inputs)
			if err != nil {
				t.Fatal(err)
			}
			for r := range got {
				if got[r].Rows != want[r].Rows || got[r].Cols != want[r].Cols {
					t.Fatalf("rank %d: served %dx%d, want %dx%d",
						r, got[r].Rows, got[r].Cols, want[r].Rows, want[r].Cols)
				}
				for i := range got[r].Data {
					if math.Float64bits(got[r].Data[i]) != math.Float64bits(want[r].Data[i]) {
						t.Fatalf("transport %v rank %d value %d: served %v != model %v",
							kind, r, i, got[r].Data[i], want[r].Data[i])
					}
				}
			}
		}
		if err := srv.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		// Closed servers fail cleanly instead of blocking.
		if _, err := srv.Predict(inputs); err == nil {
			t.Error("Predict after Close succeeded")
		}
		if err := srv.Close(); err != nil {
			t.Errorf("second Close: %v", err)
		}
	}
}

// TestServeWithLeavesParallelismAlone: serving compiles the caller's model
// and configures nothing process-wide. NewModel applies Config.Threads to
// the shared worker pool, so building a model from the caller's Config
// inside ServeWith would undo the caller's setting. The engine runs at
// NumCPU+1 threads, a count no clamped Config.Threads can produce, so a
// re-applied Config shows whatever its Threads.
func TestServeWithLeavesParallelismAlone(t *testing.T) {
	defer SetParallelism(0)
	sys, _, _ := serveSystem(t)
	cfg := SmallConfig()
	cfg.Threads = 1
	model, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := runtime.NumCPU() + 1
	parallel.SetThreads(want)
	srv, err := sys.ServeWith(InProcess, NeighborAllToAll, model, ServeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if got := Parallelism(); got != want {
		t.Fatalf("after ServeWith Parallelism() = %d, want the caller's %d", got, want)
	}
}

// TestServeRollout checks multi-step rollout requests: trajectory length,
// initial-state passthrough, and agreement with the one-shot Predict on
// the first step.
func TestServeRollout(t *testing.T) {
	sys, model, inputs := serveSystem(t)
	srv, err := sys.Serve(InProcess, NeighborAllToAll, model)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const steps = 3
	trajs, err := srv.Rollout(inputs, steps)
	if err != nil {
		t.Fatal(err)
	}
	preds, err := srv.Predict(inputs)
	if err != nil {
		t.Fatal(err)
	}
	for r, traj := range trajs {
		if len(traj) != steps+1 {
			t.Fatalf("rank %d: trajectory has %d states, want %d", r, len(traj), steps+1)
		}
		if !traj[0].Equal(inputs[r]) {
			t.Fatalf("rank %d: trajectory does not start at the initial snapshot", r)
		}
		for i := range traj[1].Data {
			if math.Float64bits(traj[1].Data[i]) != math.Float64bits(preds[r].Data[i]) {
				t.Fatalf("rank %d: rollout step 1 differs from Predict at value %d", r, i)
			}
		}
	}

	if _, err := srv.Rollout(inputs, 0); err == nil {
		t.Error("Rollout with steps=0 succeeded")
	}
}

// TestServeRequestValidation checks malformed requests are rejected with
// errors instead of panicking rank goroutines.
func TestServeRequestValidation(t *testing.T) {
	sys, model, inputs := serveSystem(t)
	srv, err := sys.Serve(InProcess, NeighborAllToAll, model)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	if _, err := srv.Predict(inputs[:1]); err == nil {
		t.Error("wrong snapshot count accepted")
	}
	bad := make([]*Matrix, len(inputs))
	copy(bad, inputs)
	bad[1] = nil
	if _, err := srv.Predict(bad); err == nil {
		t.Error("nil snapshot accepted")
	}
	bad[1] = &Matrix{Rows: 1, Cols: 3, Data: make([]float64, 3)}
	if _, err := srv.Predict(bad); err == nil {
		t.Error("wrong-shape snapshot accepted")
	}
	// The server must still serve correct requests after rejections.
	if _, err := srv.Predict(inputs); err != nil {
		t.Fatalf("valid request after rejections: %v", err)
	}

	if _, err := sys.Serve(Processes, NeighborAllToAll, model); err == nil {
		t.Error("Serve over Processes accepted (requests cannot cross the process boundary)")
	}
	if _, err := sys.ServeWith(InProcess, NeighborAllToAll, model, ServeOptions{BatchWindow: -time.Millisecond}); err == nil {
		t.Error("negative BatchWindow accepted")
	}
}

// calibrateServeSetupOps measures how many transport operations rank 0
// performs during serving setup (handshake, graph split, engine compile)
// by wrapping a throwaway server's endpoints in fault transports and
// closing it before any request. Setup is deterministic, so the count
// carries over to fresh servers built the same way and lets tests aim
// fault events at "the first operation of the first request".
func calibrateServeSetupOps(t *testing.T) int {
	t.Helper()
	sys, model, _ := serveSystem(t)
	fts := make([]*FaultTransport, sys.Ranks)
	srv, err := sys.ServeWith(InProcess, NeighborAllToAll, model, ServeOptions{
		WrapTransport: func(tr Transport) Transport {
			ft := NewFaultTransport(tr, nil)
			fts[ft.Rank()] = ft
			return ft
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("calibration close: %v", err)
	}
	return fts[0].Ops()
}

// TestServeCloseDrainsInFlight pins the drain guarantee: Close issued
// while a request is mid-collective lets the request finish and succeed
// instead of racing the worker goroutines to the channels.
func TestServeCloseDrainsInFlight(t *testing.T) {
	setupOps := calibrateServeSetupOps(t)
	sys, model, inputs := serveSystem(t)
	// Stall rank 0 for 100ms on the first operation of the first request
	// so Close provably arrives while the request is in flight.
	plan := NewFaultPlan().Add(0, FaultEvent{
		AfterOps: setupOps, Kind: FaultDelay, Peer: -1, Delay: 100 * time.Millisecond,
	})
	srv, err := sys.ServeWith(InProcess, NeighborAllToAll, model, ServeOptions{
		WrapTransport: plan.Wrap,
	})
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		outs []*Matrix
		err  error
	}
	done := make(chan result, 1)
	go func() {
		outs, err := srv.Predict(inputs)
		done <- result{outs, err}
	}()
	time.Sleep(20 * time.Millisecond) // request dispatched, rank 0 inside the stall
	if err := srv.Close(); err != nil {
		t.Fatalf("Close with in-flight request: %v", err)
	}
	res := <-done
	if res.err != nil {
		t.Fatalf("in-flight request was not drained: %v", res.err)
	}
	if len(res.outs) != sys.Ranks {
		t.Fatalf("drained request returned %d outputs for %d ranks", len(res.outs), sys.Ranks)
	}
}

// TestServePredictTimeoutStalledRank pins the unwind path for a stuck
// collective: a deliberately stalled rank makes its peer's receive
// deadline fire, the caller gets ErrTimeout within its own bound rather
// than hanging, and the server reports the poisoned collective as a
// terminal classified error on later requests and on Close.
func TestServePredictTimeoutStalledRank(t *testing.T) {
	setupOps := calibrateServeSetupOps(t)
	sys, model, inputs := serveSystem(t)
	plan := NewFaultPlan().Add(0, FaultEvent{
		AfterOps: setupOps, Kind: FaultDelay, Peer: -1, Delay: 600 * time.Millisecond,
	})
	srv, err := sys.ServeWith(InProcess, NeighborAllToAll, model, ServeOptions{
		RecvTimeout:   200 * time.Millisecond,
		WrapTransport: plan.Wrap,
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = srv.PredictTimeout(inputs, 250*time.Millisecond)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("stalled collective: want ErrTimeout, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("PredictTimeout unwound in %v, want ≈250ms", elapsed)
	}
	if _, err := srv.Predict(inputs); err == nil {
		t.Fatal("Predict after a poisoned collective succeeded")
	}
	if err := srv.Close(); err == nil {
		t.Fatal("Close after a poisoned collective reported success")
	} else if !errors.Is(err, ErrTimeout) {
		t.Fatalf("Close error not classified: %v", err)
	}
}

// TestServeRolloutTimeoutStalledRank pins the per-call deadline of a
// rollout: with one rank stalled, RolloutTimeout returns ErrTimeout at
// its own deadline instead of waiting out the stall. The deadline bounds
// the caller's wait only: the stall stays inside the step-scaled receive
// deadline, so the abandoned rollout completes, its result is discarded,
// and the server keeps serving and closes cleanly.
func TestServeRolloutTimeoutStalledRank(t *testing.T) {
	setupOps := calibrateServeSetupOps(t)
	sys, model, inputs := serveSystem(t)
	const steps, stall = 4, 500 * time.Millisecond
	plan := NewFaultPlan().Add(0, FaultEvent{
		AfterOps: setupOps, Kind: FaultDelay, Peer: -1, Delay: stall,
	})
	srv, err := sys.ServeWith(InProcess, NeighborAllToAll, model, ServeOptions{
		RecvTimeout:   250 * time.Millisecond, // 4 steps: 1s per receive
		WrapTransport: plan.Wrap,
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	trajs, err := srv.RolloutTimeout(inputs, steps, 100*time.Millisecond)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("stalled rollout: want ErrTimeout, got %v", err)
	}
	if trajs != nil {
		t.Fatal("timed-out rollout returned trajectories")
	}
	if elapsed := time.Since(start); elapsed >= stall-50*time.Millisecond {
		t.Fatalf("RolloutTimeout returned after %v: it waited out the %v stall", elapsed, stall)
	}
	trajs, err = srv.Rollout(inputs, steps)
	if err != nil {
		t.Fatalf("rollout after an abandoned one: %v", err)
	}
	for r, traj := range trajs {
		if len(traj) != steps+1 {
			t.Fatalf("rank %d: trajectory has %d states, want %d", r, len(traj), steps+1)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestSystemPredictOneShot covers the one-shot convenience wrapper.
func TestSystemPredictOneShot(t *testing.T) {
	sys, model, inputs := serveSystem(t)
	outs, err := sys.Predict(NeighborAllToAll, model, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != sys.Ranks {
		t.Fatalf("got %d outputs for %d ranks", len(outs), sys.Ranks)
	}
	for r, y := range outs {
		if y.Rows != inputs[r].Rows || y.Cols != 3 {
			t.Fatalf("rank %d output is %dx%d", r, y.Rows, y.Cols)
		}
		for _, v := range y.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("rank %d: non-finite prediction", r)
			}
		}
	}
}
