//go:build unix

package meshgnn

import (
	"sync"
	"syscall"
	"testing"
	"time"
)

// processCPU is the CPU time the test process has used, user and system.
func processCPU(t *testing.T) time.Duration {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// TestServeBatchWindowParks holds a long batching window to a blocked
// dispatcher: with two requests parked in a 10 s window, the process uses
// well under a quarter of the wall time in CPU, so only a window's last
// millisecond is polled. Close then drains both requests, bitwise.
func TestServeBatchWindowParks(t *testing.T) {
	sys, model, inputs := serveSystem(t)
	other := perturbed(inputs, 0.3)
	want0 := refForward(t, sys, inputs)
	want1 := refForward(t, sys, other)
	srv, err := sys.ServeWith(InProcess, NeighborAllToAll, model, ServeOptions{
		MaxBatch:    8,
		BatchWindow: 10 * time.Second, // would outlive the test: Close cuts it short
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
	// Both requests admitted, and taken off the queue into the window.
	ses := srv.sessions[0]
	for ses.inflight.Load() < 2 || len(ses.queue) > 0 {
		time.Sleep(time.Millisecond)
	}
	cpu0, wall0 := processCPU(t), time.Now()
	time.Sleep(200 * time.Millisecond)
	cpu, wall := processCPU(t)-cpu0, time.Since(wall0)
	if err := srv.Close(); err != nil {
		t.Fatalf("Close with a pending batching window: %v", err)
	}
	wg.Wait()
	t.Logf("CPU over a %v park: %v", wall, cpu)
	if cpu >= wall/4 {
		t.Errorf("the process used %v of CPU over a %v park in a 10 s window; want < 25 %%", cpu, wall)
	}
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
