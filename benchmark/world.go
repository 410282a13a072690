package main

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"meshgnn"
)

// options are one run's arguments.
type options struct {
	seed     int64
	seconds  float64
	trace    bool
	traceOut string
}

// window is how long the run measures.
func (o options) window() time.Duration {
	return time.Duration(o.seconds * float64(time.Second))
}

// setupRepeats is how many times an untraced run sets the system up from
// nothing and tears it down again before the set-up it measures on, so
// that setup_s is a median and not one cold sample.
const setupRepeats = 15

// medianSetup runs setup setupRepeats times and returns the median of the
// times it reports, in seconds.
func medianSetup(setup func() (time.Duration, error)) (float64, error) {
	var each []float64
	for i := 0; i < setupRepeats; i++ {
		took, err := setup()
		if err != nil {
			return 0, fmt.Errorf("set-up %d: %w", i, err)
		}
		each = append(each, took.Seconds())
	}
	return median(each), nil
}

// report is what a workload hands back: the contract's counts, the metric
// values by name, and notes printed above the result line.
type report struct {
	correct   bool
	attempted int
	failed    int
	values    map[string]float64
	notes     []string
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// gateFailed records a failed correctness gate.
func (r *report) gateFailed(format string, args ...any) {
	r.correct = false
	r.notef("GATE FAILED: "+format, args...)
}

// inputs are everything a run derives from its seed: the snapshot times
// of the Taylor–Green field the traffic rotates over and, for an
// open-loop workload, the arrival schedule. The library never sees the
// seed, only these.
type inputs struct {
	times []float64
	sched []time.Duration
}

func inputsFromSeed(sp spec, o options) inputs {
	rng := rand.New(rand.NewSource(o.seed))
	in := inputs{times: make([]float64, sp.snapshots)}
	for i := range in.times {
		in.times[i] = 2 * rng.Float64()
	}
	if sp.rate > 0 {
		window := o.window()
		if o.trace {
			window /= 2 // a traced run measures twice: spans off, spans on
		}
		in.sched = arrivalSchedule(rng, sp.rate, window, sp.burst)
	}
	return in
}

// world is a workload's partitioned mesh with its sampled snapshots.
type world struct {
	mesh   *meshgnn.Mesh
	sys    *meshgnn.System
	in     [][]*meshgnn.Matrix // [snapshot][rank] field at the snapshot time
	target [][]*meshgnn.Matrix // [snapshot][rank] field a little later (training target)
}

var tgv = meshgnn.TaylorGreen{V0: 1, L: 1, Nu: 0.01}

// targetLag is how far ahead of its input a training target lies.
const targetLag = 0.05

func buildWorld(sp spec, times []float64) (*world, error) {
	m, err := meshgnn.NewMesh(sp.elems[0], sp.elems[1], sp.elems[2], sp.order, meshgnn.FullyPeriodic)
	if err != nil {
		return nil, err
	}
	sys, err := meshgnn.NewSystem(m, sp.ranks, meshgnn.Slabs)
	if err != nil {
		return nil, err
	}
	w := &world{mesh: m, sys: sys}
	for _, t := range times {
		in := make([]*meshgnn.Matrix, sp.ranks)
		tg := make([]*meshgnn.Matrix, sp.ranks)
		for r := 0; r < sp.ranks; r++ {
			in[r] = meshgnn.SampleField(tgv, sys.Locals[r], t)
			tg[r] = meshgnn.SampleField(tgv, sys.Locals[r], t+targetLag)
		}
		w.in = append(w.in, in)
		w.target = append(w.target, tg)
	}
	return w, nil
}

func (w *world) nodes() float64 { return float64(w.mesh.NumNodes()) }

// gate is a reusable rendezvous for the goroutine ranks of one world. It
// lets rank 0 read shared counters while every rank is known to be idle,
// without sending a message the counters would see.
type gate struct {
	mu      sync.Mutex
	cond    *sync.Cond
	n       int
	waiting int
	round   int
}

func newGate(n int) *gate {
	g := &gate{n: n}
	g.cond = sync.NewCond(&g.mu)
	return g
}

func (g *gate) wait() {
	g.mu.Lock()
	defer g.mu.Unlock()
	round := g.round
	g.waiting++
	if g.waiting == g.n {
		g.waiting = 0
		g.round++
		g.cond.Broadcast()
		return
	}
	for round == g.round {
		g.cond.Wait()
	}
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}
