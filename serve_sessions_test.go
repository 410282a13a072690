package meshgnn

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// sessionServeSystem builds the 2-rank serving fixture with a
// configurable pipeline (sync or overlapped halo exchange) and serving
// precision.
func sessionServeSystem(t *testing.T, overlap bool, prec Precision) (*System, *Model, []*Matrix) {
	t.Helper()
	m, err := NewMesh(3, 3, 3, 2, FullyPeriodic)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(m, 2, Slabs)
	if err != nil {
		t.Fatal(err)
	}
	cfg := SmallConfig()
	cfg.Overlap = overlap
	cfg.Precision = prec
	model, err := NewModel(cfg)
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

// refStandalone is the reference a served answer must equal bitwise: at
// Float64 a direct collective Model.Forward, at Float32 — which only
// approximates that — the Predict of a standalone float32 engine compiled
// on each rank.
func refStandalone(t *testing.T, sys *System, cfg Config, inputs []*Matrix) []*Matrix {
	t.Helper()
	if cfg.Precision != Float32 {
		return refForward(t, sys, inputs)
	}
	want, err := RunCollect(sys, NeighborAllToAll, func(r *Rank) (*Matrix, error) {
		m, err := NewModel(cfg)
		if err != nil {
			return nil, err
		}
		eng, err := NewInference(m)
		if err != nil {
			return nil, err
		}
		return eng.Predict(r.Ctx, inputs[r.ID()]).Clone(), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// TestServeSessionsBitwiseParity checks the multi-session contract on
// every precision × transport × pipeline combination: S sessions serving
// concurrent Predict and Rollout requests over one shared immutable
// compiled engine core must answer bit-for-bit what a standalone engine
// (and a sequential single-session server) answers. The sessions are
// independent collective groups, so this is the test that would catch a
// shared mutable buffer (arena, wire staging, task state, static-edge
// cache write) leaking across sessions.
func TestServeSessionsBitwiseParity(t *testing.T) {
	for _, prec := range []Precision{Float64, Float32} {
		serveSessionsParity(t, prec)
	}
}

func serveSessionsParity(t *testing.T, prec Precision) {
	const sessions = 3
	const steps = 2
	for _, kind := range []TransportKind{InProcess, Sockets} {
		for _, overlap := range []bool{false, true} {
			sys, model, inputs := sessionServeSystem(t, overlap, prec)
			alt := perturbed(inputs, 0.25)
			want := refStandalone(t, sys, model.Config, inputs)
			wantAlt := refStandalone(t, sys, model.Config, alt)

			// Sequential single-session reference for the rollout.
			ref, err := sys.Serve(InProcess, NeighborAllToAll, model)
			if err != nil {
				t.Fatal(err)
			}
			wantTraj, err := ref.Rollout(inputs, steps)
			if err != nil {
				t.Fatal(err)
			}
			if err := ref.Close(); err != nil {
				t.Fatal(err)
			}

			srv, err := sys.ServeWith(kind, NeighborAllToAll, model, ServeOptions{
				Sessions: sessions,
				MaxBatch: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			if srv.core == nil {
				t.Fatalf("precision %d: no shared core; every rank of every session would compile its own engine", prec)
			}
			if got := srv.Sessions(); got != sessions {
				t.Fatalf("Sessions() = %d, want %d", got, sessions)
			}
			if got := srv.LiveSessions(); got != sessions {
				t.Fatalf("LiveSessions() = %d, want %d", got, sessions)
			}

			// 3 clients per session issuing interleaved predictions on two
			// distinct snapshots, plus concurrent rollouts.
			var wg sync.WaitGroup
			errs := make(chan error, 4*sessions)
			for cl := 0; cl < 3*sessions; cl++ {
				wg.Add(1)
				go func(cl int) {
					defer wg.Done()
					in, exp := inputs, want
					if cl%2 == 1 {
						in, exp = alt, wantAlt
					}
					for i := 0; i < 3; i++ {
						outs, err := srv.Predict(in)
						if err != nil {
							errs <- err
							return
						}
						for r := range exp {
							if !bitEqual(outs[r], exp[r]) {
								t.Errorf("precision %d %v overlap=%v client %d: rank %d diverged bitwise from the standalone reference",
									prec, kind, overlap, cl, r)
								return
							}
						}
					}
				}(cl)
			}
			for cl := 0; cl < sessions; cl++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					trajs, err := srv.Rollout(inputs, steps)
					if err != nil {
						errs <- err
						return
					}
					for r := range trajs {
						for s := range trajs[r] {
							if !bitEqual(trajs[r][s], wantTraj[r][s]) {
								t.Errorf("precision %d %v overlap=%v: rollout rank %d step %d diverged bitwise", prec, kind, overlap, r, s)
								return
							}
						}
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatalf("precision %d %v overlap=%v: %v", prec, kind, overlap, err)
			}
			if err := srv.Close(); err != nil {
				t.Fatalf("precision %d %v overlap=%v close: %v", prec, kind, overlap, err)
			}
		}
	}
}

// TestServeSessionFatalIsolation injects a panic into one session's rank
// world (ServeOptions.WrapSession targets the fault plan at session 0
// only) and checks the PR-8 failure contract now holds per session: the
// poisoned session fails its request with a classified error naming the
// session and latches fatal, while the sibling keeps serving
// bitwise-correct answers — capacity degrades, the server survives.
func TestServeSessionFatalIsolation(t *testing.T) {
	setupOps := calibrateServeSetupOps(t)
	sys, model, inputs := serveSystem(t)
	want := refForward(t, sys, inputs)

	plan := NewFaultPlan().Add(0, FaultEvent{
		AfterOps: setupOps, Kind: FaultPanic, Peer: -1,
	})
	srv, err := sys.ServeWith(InProcess, NeighborAllToAll, model, ServeOptions{
		Sessions: 2,
		WrapSession: func(session int) func(Transport) Transport {
			if session == 0 {
				return plan.Wrap
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Both sessions are idle, so the first request routes to session 0
	// (ties break toward the lowest id) and dies on the injected panic.
	_, err = srv.Predict(inputs)
	if err == nil {
		t.Fatal("request served by the poisoned session succeeded")
	}
	if !strings.Contains(err.Error(), "session 0") {
		t.Fatalf("poisoned session's error does not name it: %v", err)
	}

	// The fatal latch trips as the rank world unwinds; wait for the
	// capacity accounting to observe it.
	deadline := time.Now().Add(5 * time.Second)
	for srv.LiveSessions() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("LiveSessions() = %d, want 1 after session 0 latched fatal", srv.LiveSessions())
		}
		time.Sleep(time.Millisecond)
	}
	if got := srv.Sessions(); got != 2 {
		t.Fatalf("Sessions() = %d, want 2 (configured capacity is not rewritten by failures)", got)
	}

	// The sibling serves on, bitwise-correct.
	for i := 0; i < 3; i++ {
		outs, err := srv.Predict(inputs)
		if err != nil {
			t.Fatalf("sibling session request %d: %v", i, err)
		}
		for r := range want {
			if !bitEqual(outs[r], want[r]) {
				t.Fatalf("sibling session request %d: rank %d diverged bitwise", i, r)
			}
		}
	}

	// Close reports the injected fault, not a clean shutdown, and does not
	// wait out a receive deadline: the poisoned session's surviving rank
	// is released by its panicked peer's closed endpoint.
	start := time.Now()
	if err := srv.Close(); err == nil {
		t.Fatal("Close after an injected session panic returned nil")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("Close took %v, want < 2s", elapsed)
	}
}

// TestServeSessionsCloseDrains checks the drain contract across
// sessions: every request admitted before Close gets a real answer (the
// admission/close handshake is deterministic — no request is ever
// dropped into a closed queue), and post-close submissions fail cleanly.
func TestServeSessionsCloseDrains(t *testing.T) {
	sys, model, inputs := serveSystem(t)
	want := refForward(t, sys, inputs)
	srv, err := sys.ServeWith(InProcess, NeighborAllToAll, model, ServeOptions{
		Sessions: 2,
	})
	if err != nil {
		t.Fatal(err)
	}

	const requests = 6
	outs := make([][]*Matrix, requests)
	errs := make([]error, requests)
	var wg sync.WaitGroup
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i], errs[i] = srv.Predict(inputs)
		}(i)
	}
	time.Sleep(2 * time.Millisecond) // let some requests into the queues
	closeErr := srv.Close()
	wg.Wait()
	if closeErr != nil {
		t.Fatalf("close: %v", closeErr)
	}
	for i := 0; i < requests; i++ {
		if errs[i] != nil {
			// A request that lost the race with Close must fail with the
			// closed-server error, not hang or panic.
			if !strings.Contains(errs[i].Error(), "closed") {
				t.Fatalf("request %d failed with %v, want a closed-server error", i, errs[i])
			}
			continue
		}
		for r := range want {
			if !bitEqual(outs[i][r], want[r]) {
				t.Fatalf("drained request %d: rank %d diverged bitwise", i, r)
			}
		}
	}
	if _, err := srv.Predict(inputs); err == nil {
		t.Fatal("Predict after Close succeeded")
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}
