// Command chaos is the fault-injection harness: it drives training and
// serving workloads through deterministic fault schedules
// (comm.FaultTransport) and asserts the library's documented failure
// contract on every one —
//
//   - a clean, classified error (errors.Is ErrPeerDown / ErrTimeout /
//     ErrCorruptFrame / ErrFault, or a loud tag-mismatch) whenever a
//     fault corrupts the run;
//   - bounded recovery: every scenario finishes within its watchdog
//     deadline — a fault may fail a run, it may never hang it;
//   - never a wrong answer passed as correct: a run that reports success
//     must produce results bitwise-identical to the fault-free reference;
//   - the process survives: rank panics are recovered into errors, the
//     serving frontend fails fast with the root cause, and Close stays
//     deterministic.
//
// Usage:
//
//	chaos [-seed 1] [-seeds 6] [-elems 3] [-iters 4] [-v]
//
// The named scenarios (delays, peer death, dropped and duplicated sends,
// on-the-wire corruption on both fabrics, a rank panic mid-serving) run
// first; then -seeds random schedules drawn from the base seed sweep the
// training loop. Exits non-zero on the first violated assertion.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"strings"
	"sync"
	"time"

	"meshgnn"
	"meshgnn/internal/comm"
)

// watchdogTimeout bounds every scenario: the "never a hang" assertion.
const watchdogTimeout = 60 * time.Second

// commTimeout is the receive deadline armed in faulted runs, so a rank
// whose peer died unwinds quickly instead of eating the watchdog budget.
const commTimeout = 2 * time.Second

var verbose = flag.Bool("v", false, "log every scenario outcome")

func main() {
	log.SetFlags(0)
	log.SetPrefix("chaos: ")
	var (
		seed  = flag.Int64("seed", 1, "base seed for the random-schedule sweep")
		seeds = flag.Int("seeds", 6, "number of random schedules to sweep")
		elems = flag.Int("elems", 3, "elements per axis of the cubic test mesh")
		iters = flag.Int("iters", 4, "training iterations per run")
	)
	flag.Parse()

	h, err := newHarness(*elems, *iters)
	if err != nil {
		log.Fatal(err)
	}

	scenarios := []struct {
		name string
		run  func() error
	}{
		{"baseline", h.baseline},
		{"delay-bitwise", h.delayBitwise},
		{"corrupt-inproc", h.corruptInproc},
		{"corrupt-sockets", h.corruptSockets},
		{"peer-down", h.peerDown},
		{"drop-timeout", h.dropTimeout},
		{"dup-mispair", h.dupMispair},
		{"serve-rank-panic", h.serveRankPanic},
	}
	for _, sc := range scenarios {
		if err := watchdog(sc.name, sc.run); err != nil {
			log.Fatalf("%s: %v", sc.name, err)
		}
		fmt.Printf("PASS %s\n", sc.name)
	}
	for i := 0; i < *seeds; i++ {
		s := *seed + int64(i)
		name := fmt.Sprintf("sweep-seed-%d", s)
		if err := watchdog(name, func() error { return h.sweep(s) }); err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		fmt.Printf("PASS %s\n", name)
	}
	fmt.Printf("chaos: all %d scenarios + %d seeds honored the failure contract\n",
		len(scenarios), *seeds)
}

// watchdog runs fn with the no-hang bound. A scenario that exceeds it is
// the one outcome the contract forbids unconditionally, so the process
// exits immediately (the stuck goroutine is abandoned).
func watchdog(name string, fn func() error) error {
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		return err
	case <-time.After(watchdogTimeout):
		log.Fatalf("%s: HANG: scenario exceeded %v", name, watchdogTimeout)
		return nil
	}
}

// classified reports whether err carries one of the documented failure
// classes: a sentinel in the chain, or the transports' loud tag-mismatch
// diagnostic (the channel fabric's integrity check).
func classified(err error) bool {
	if err == nil {
		return false
	}
	return errors.Is(err, meshgnn.ErrPeerDown) ||
		errors.Is(err, meshgnn.ErrTimeout) ||
		errors.Is(err, meshgnn.ErrCorruptFrame) ||
		errors.Is(err, meshgnn.ErrFault) ||
		strings.Contains(err.Error(), "expected tag")
}

// harness owns the shared test system and the fault-free references every
// bitwise assertion compares against.
type harness struct {
	sys    *meshgnn.System
	model  *meshgnn.Model
	inputs []*meshgnn.Matrix
	iters  int

	refLoss  []float64         // fault-free per-iteration losses (rank 0)
	refPreds []*meshgnn.Matrix // fault-free served predictions
}

func newHarness(elems, iters int) (*harness, error) {
	m, err := meshgnn.NewMesh(elems, elems, elems, 2, meshgnn.FullyPeriodic)
	if err != nil {
		return nil, err
	}
	sys, err := meshgnn.NewSystem(m, 2, meshgnn.Slabs)
	if err != nil {
		return nil, err
	}
	model, err := meshgnn.NewModel(meshgnn.SmallConfig())
	if err != nil {
		return nil, err
	}
	f := meshgnn.TaylorGreen{V0: 1, L: 1, Nu: 0.01}
	inputs := make([]*meshgnn.Matrix, sys.Ranks)
	for r := range inputs {
		inputs[r] = meshgnn.SampleField(f, sys.Locals[r], 0.25)
	}
	return &harness{sys: sys, model: model, inputs: inputs, iters: iters}, nil
}

// train runs the seeded training loop under the given wrapper and returns
// rank 0's per-iteration losses. Ranks arm the chaos receive deadline so
// faulted runs unwind instead of hanging.
func (h *harness) train(wrap func(meshgnn.Transport) meshgnn.Transport) ([]float64, error) {
	losses := make([]float64, h.iters)
	err := h.sys.RunOnWith(meshgnn.InProcess, meshgnn.NeighborAllToAll, wrap, func(r *meshgnn.Rank) error {
		return h.trainRank(r, losses)
	})
	return losses, err
}

func (h *harness) trainSockets(wrap func(meshgnn.Transport) meshgnn.Transport) ([]float64, error) {
	losses := make([]float64, h.iters)
	err := h.sys.RunOnWith(meshgnn.Sockets, meshgnn.NeighborAllToAll, wrap, func(r *meshgnn.Rank) error {
		return h.trainRank(r, losses)
	})
	return losses, err
}

func (h *harness) trainRank(r *meshgnn.Rank, losses []float64) error {
	r.SetCommTimeout(commTimeout)
	model, err := meshgnn.NewModel(meshgnn.SmallConfig())
	if err != nil {
		return err
	}
	trainer := meshgnn.NewTrainer(model, meshgnn.NewAdam(1e-3))
	x := h.inputs[r.ID()]
	for i := 0; i < h.iters; i++ {
		loss := trainer.Step(r.Ctx, x, x)
		if r.ID() == 0 {
			losses[i] = loss
		}
	}
	return nil
}

// baseline records the fault-free references: the training loss trace and
// the served predictions every bitwise assertion compares against.
func (h *harness) baseline() error {
	losses, err := h.train(nil)
	if err != nil {
		return fmt.Errorf("fault-free training failed: %w", err)
	}
	h.refLoss = losses
	preds, err := h.sys.Predict(meshgnn.NeighborAllToAll, h.model, h.inputs)
	if err != nil {
		return fmt.Errorf("fault-free serving failed: %w", err)
	}
	h.refPreds = preds
	return nil
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// delayBitwise: injected delays are pure jitter — the run must succeed
// with a loss trace bitwise-identical to the fault-free reference.
func (h *harness) delayBitwise() error {
	plan := meshgnn.NewFaultPlan().
		Add(0, meshgnn.FaultEvent{AfterOps: 3, Kind: meshgnn.FaultDelay, Peer: -1, Delay: 2 * time.Millisecond}).
		Add(1, meshgnn.FaultEvent{AfterOps: 17, Kind: meshgnn.FaultDelay, Peer: -1, Delay: 5 * time.Millisecond}).
		Add(1, meshgnn.FaultEvent{AfterOps: 40, Kind: meshgnn.FaultDelay, Peer: -1, Delay: time.Millisecond})
	losses, err := h.train(plan.Wrap)
	if err != nil {
		return fmt.Errorf("delay-only run failed: %w", err)
	}
	if !sameBits(losses, h.refLoss) {
		return fmt.Errorf("delay-only run changed the loss trace: %v != %v", losses, h.refLoss)
	}
	return nil
}

// corruptInproc: on the channel fabric a corrupted message is rejected by
// the receiver's tag check — a loud mispair diagnostic, never delivered
// data.
func (h *harness) corruptInproc() error {
	plan := meshgnn.NewFaultPlan().
		Add(1, meshgnn.FaultEvent{AfterOps: 10, Kind: meshgnn.FaultCorruptFrame, Peer: -1, Bit: 7})
	_, err := h.train(plan.Wrap)
	if !classified(err) {
		return fmt.Errorf("corrupted message not rejected with a classified error, got: %v", err)
	}
	logf("corrupt-inproc error: %v", err)
	return nil
}

// corruptSockets: on the wire a flipped bit must fail the CRC-32C check
// on the receiving rank — an ErrCorruptFrame diagnostic, never data.
func (h *harness) corruptSockets() error {
	plan := meshgnn.NewFaultPlan().
		Add(1, meshgnn.FaultEvent{AfterOps: 10, Kind: meshgnn.FaultCorruptFrame, Peer: -1, Bit: 133})
	_, err := h.trainSockets(plan.Wrap)
	if err == nil || !errors.Is(err, meshgnn.ErrCorruptFrame) {
		return fmt.Errorf("flipped wire bit not rejected as ErrCorruptFrame, got: %v", err)
	}
	logf("corrupt-sockets error: %v", err)
	return nil
}

// peerDown: a peer marked dead fails operations touching it with
// ErrPeerDown, and the run ends with that class within the deadline.
func (h *harness) peerDown() error {
	plan := meshgnn.NewFaultPlan().
		Add(0, meshgnn.FaultEvent{AfterOps: 12, Kind: meshgnn.FaultPeerDown, Peer: 1})
	start := time.Now()
	_, err := h.train(plan.Wrap)
	if err == nil || !errors.Is(err, meshgnn.ErrPeerDown) {
		return fmt.Errorf("dead peer not reported as ErrPeerDown, got: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 6*commTimeout {
		return fmt.Errorf("recovery took %v, want bounded by the %v receive deadline", elapsed, commTimeout)
	}
	logf("peer-down error: %v", err)
	return nil
}

// dropTimeout: a swallowed send leaves its receiver waiting; with a
// receive deadline armed the wait ends in ErrTimeout, not a hang. The
// sender stays up until the wait is over: a sender that had exited would
// release the wait with ErrPeerDown instead (peer-down covers that).
func (h *harness) dropTimeout() error {
	plan := comm.NewFaultPlan().
		Add(0, comm.FaultEvent{AfterOps: 0, Kind: comm.FaultDropSend, Peer: 1})
	err := comm.RunWith(2, plan.Wrap, func(c *comm.Comm) error {
		c.SetRecvTimeout(300 * time.Millisecond)
		if c.Rank() == 0 {
			c.Send(1, comm.TagUser, []float64{1, 2, 3}) // swallowed
			c.SetRecvTimeout(5 * time.Second)
			c.Recv(1, comm.TagUser+1)
		} else {
			defer c.Send(0, comm.TagUser+1, nil) // the wait is over
			c.Recv(0, comm.TagUser)              // nothing arrives
		}
		return nil
	})
	if err == nil || !errors.Is(err, comm.ErrTimeout) {
		return fmt.Errorf("dropped send not surfaced as ErrTimeout, got: %v", err)
	}
	logf("drop-timeout error: %v", err)
	return nil
}

// dupMispair: a duplicated send answers the receiver's next receive, which
// fails the tag check on distinctly-tagged traffic — loud, not silent.
func (h *harness) dupMispair() error {
	plan := comm.NewFaultPlan().
		Add(0, comm.FaultEvent{AfterOps: 0, Kind: comm.FaultDupSend, Peer: 1})
	err := comm.RunWith(2, plan.Wrap, func(c *comm.Comm) error {
		c.SetRecvTimeout(time.Second)
		if c.Rank() == 0 {
			c.Send(1, comm.TagUser, []float64{1}) // duplicated
			c.Send(1, comm.TagUser+1, []float64{2})
		} else {
			c.Recv(0, comm.TagUser)
			c.Recv(0, comm.TagUser+1) // gets the duplicate instead
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "expected tag") {
		return fmt.Errorf("duplicated send not caught by the tag check, got: %v", err)
	}
	logf("dup-mispair error: %v", err)
	return nil
}

// serveRankPanic: a serving rank that panics mid-request must fail that
// request with the injected class, fail the server fast on later calls,
// keep Close deterministic — and never crash the process. The trigger op
// is calibrated from a fault-free serving run (op counts are
// deterministic), so the panic lands inside the second request.
func (h *harness) serveRankPanic() error {
	ops, firstPred, err := h.calibrateServing()
	if err != nil {
		return err
	}
	if !sameBits(firstPred[0].Data, h.refPreds[0].Data) {
		return fmt.Errorf("calibration predict differs from fault-free reference")
	}

	plan := meshgnn.NewFaultPlan().
		Add(1, meshgnn.FaultEvent{AfterOps: ops, Kind: meshgnn.FaultPanic, Peer: -1})
	srv, err := h.sys.ServeWith(meshgnn.InProcess, meshgnn.NeighborAllToAll, h.model,
		meshgnn.ServeOptions{RecvTimeout: commTimeout, WrapTransport: plan.Wrap})
	if err != nil {
		return err
	}
	defer srv.Close()

	got, err := srv.Predict(h.inputs)
	if err != nil {
		return fmt.Errorf("first request (before the fault) failed: %w", err)
	}
	for r := range got {
		if !sameBits(got[r].Data, h.refPreds[r].Data) {
			return fmt.Errorf("rank %d: pre-fault prediction differs from reference", r)
		}
	}

	if _, err = srv.Predict(h.inputs); err == nil || !errors.Is(err, meshgnn.ErrFault) {
		return fmt.Errorf("faulted request did not surface the injected panic, got: %v", err)
	}
	logf("serve-rank-panic request error: %v", err)

	// The server is terminal now: later calls fail fast with the root
	// cause instead of re-entering the desynchronized fabric.
	start := time.Now()
	if _, err = srv.Predict(h.inputs); err == nil || !classified(err) {
		return fmt.Errorf("post-fault request not rejected with the root cause, got: %v", err)
	}
	if elapsed := time.Since(start); elapsed > commTimeout {
		return fmt.Errorf("post-fault rejection took %v, want fast-fail", elapsed)
	}
	if err = srv.Close(); err == nil {
		return fmt.Errorf("Close after a fatal rank returned nil")
	}
	logf("serve-rank-panic close error: %v", err)
	return nil
}

// calibrateServing serves one fault-free request through instrumented
// (but fault-less) transports and returns rank 1's op count afterwards —
// the deterministic trigger point for "during the second request".
func (h *harness) calibrateServing() (int, []*meshgnn.Matrix, error) {
	var mu sync.Mutex
	fts := make(map[int]*meshgnn.FaultTransport)
	wrap := func(t meshgnn.Transport) meshgnn.Transport {
		ft := comm.NewFaultTransport(t, nil)
		mu.Lock()
		fts[t.Rank()] = ft
		mu.Unlock()
		return ft
	}
	srv, err := h.sys.ServeWith(meshgnn.InProcess, meshgnn.NeighborAllToAll, h.model,
		meshgnn.ServeOptions{RecvTimeout: commTimeout, WrapTransport: wrap})
	if err != nil {
		return 0, nil, err
	}
	preds, err := srv.Predict(h.inputs)
	if err != nil {
		srv.Close()
		return 0, nil, fmt.Errorf("calibration predict: %w", err)
	}
	if err := srv.Close(); err != nil {
		return 0, nil, fmt.Errorf("calibration close: %w", err)
	}
	ft := fts[1]
	if ft == nil {
		return 0, nil, fmt.Errorf("calibration captured no rank-1 transport")
	}
	logf("calibration: rank 1 performed %d ops for setup + one predict", ft.Ops())
	return ft.Ops(), preds, nil
}

// sweep trains under a random (but deterministic per seed) schedule of
// detectable faults and asserts the universal contract: the run either
// succeeds with a bitwise-identical loss trace, or fails with a
// classified error — and always within the watchdog bound.
func (h *harness) sweep(seed int64) error {
	plan := meshgnn.RandomFaultPlan(seed, h.sys.Ranks, 3, 300)
	losses, err := h.train(plan.Wrap)
	switch {
	case err == nil:
		if !sameBits(losses, h.refLoss) {
			return fmt.Errorf("seed %d: run reported success with a diverged loss trace", seed)
		}
		logf("seed %d: clean run, bitwise-identical losses", seed)
	case classified(err):
		logf("seed %d: classified failure: %v", seed, err)
	default:
		return fmt.Errorf("seed %d: unclassified failure: %v", seed, err)
	}
	return nil
}

func logf(format string, args ...any) {
	if *verbose {
		log.Printf(format, args...)
	}
}
