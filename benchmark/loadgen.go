package main

import (
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// paceJitter is the share by which each gap of a schedule departs from the
// even pace, at most.
const paceJitter = 0.2

// arrivalSchedule draws the due times of an open-loop run of rate × window
// requests that arrive burst at a time. The bursts are paced: each gap
// between two of them is the mean gap stretched or shrunk by up to
// paceJitter, which the seed draws. As long as the server is done with a
// burst within (1 - paceJitter) mean gaps, no burst ever queues behind the
// one before, and the tail latency measures the server, not how the seed
// happened to bunch the arrivals.
func arrivalSchedule(rng *rand.Rand, rate float64, window time.Duration, burst int) []time.Duration {
	n := int(rate*window.Seconds()/float64(burst) + 0.5)
	if n < 1 {
		n = 1
	}
	gaps := make([]float64, n)
	var total float64
	for i := range gaps {
		gaps[i] = 1 + paceJitter*(2*rng.Float64()-1)
		total += gaps[i]
	}
	due := make([]time.Duration, 0, n*burst)
	var at float64
	for _, g := range gaps {
		for k := 0; k < burst; k++ {
			due = append(due, time.Duration(at/total*float64(window)))
		}
		at += g
	}
	return due
}

// sleepSlack is how early waitUntil stops sleeping. A sleep on the sandbox
// overshoots by about a millisecond, which would be a tenth of a light
// request's latency; the rest of the wait yields the processor in a loop
// and lands within microseconds.
const sleepSlack = 1500 * time.Microsecond

func waitUntil(at time.Time) {
	if d := time.Until(at) - sleepSlack; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(at) {
		runtime.Gosched()
	}
}

var errRefused = errors.New("refused: in-flight cap reached")

// load is the outcome of one generated traffic window.
type load struct {
	sent        int       // requests the generator tried to send
	failed      int       // refused over the in-flight cap, answered with an error, or answered wrongly
	sloMiss     int       // open loop: failed, or answered later than latencyLimit
	lateMS      []float64 // open loop: how long after its due time each request left
	inflightMax int
	rec         *recorder
}

// collector gathers request outcomes from the client goroutines.
type collector struct {
	mu sync.Mutex
	l  *load
	// limit, when positive, is the latency beyond which an answered
	// request still counts as a miss.
	limit time.Duration
}

// done books a request that began at began (open loop: its due time) and
// has just been answered, or failed with err. span is its request span.
func (c *collector) done(began time.Time, span int, err error) {
	took := time.Since(began)
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil {
		c.l.failed++
		c.l.sloMiss++
		return
	}
	c.l.rec.op(began, took, span != off)
	if c.limit > 0 && took > c.limit {
		c.l.sloMiss++
	}
}

// openLoop sends request i at due[i] after the start whether or not
// earlier ones have answered, as independent users do, and times each
// from its due time, so a stall is charged to every request it delays.
// do performs request i and reports whether the answer was right.
func openLoop(due []time.Duration, tr *tracer, meters bool, do func(i, parent int) error) *load {
	l := &load{sent: len(due), rec: startRecorder(meters)}
	c := &collector{l: l, limit: latencyLimit}
	var wg sync.WaitGroup
	var inflight atomic.Int64
	for i, d := range due {
		at := l.rec.start.Add(d)
		waitUntil(at)
		l.lateMS = append(l.lateMS, ms(time.Since(at)))
		now := int(inflight.Add(1))
		if now > inflightCap {
			inflight.Add(-1)
			c.done(at, off, errRefused)
			continue
		}
		if now > l.inflightMax {
			l.inflightMax = now
		}
		wg.Add(1)
		go func(i int, at time.Time) {
			defer wg.Done()
			// The request span starts at the due time; its self time is
			// how late the generator sent it.
			id := tr.beginAt("loadgen.request", root, i, at)
			err := do(i, id)
			tr.end(id)
			inflight.Add(-1)
			c.done(at, id, err)
		}(i, at)
	}
	wg.Wait()
	l.rec.finish()
	return l
}

// closedLoop runs clients that each send their next request only when
// the previous one has answered, as callers waiting for a reply do, until
// the window has passed.
func closedLoop(clients int, window time.Duration, tr *tracer, meters bool, do func(i, parent int) error) *load {
	l := &load{inflightMax: clients, rec: startRecorder(meters)}
	c := &collector{l: l}
	var wg sync.WaitGroup
	var next atomic.Int64
	deadline := l.rec.start.Add(window)
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				t0 := time.Now()
				id := tr.begin("loadgen.request", root, i)
				err := do(i, id)
				tr.end(id)
				c.done(t0, id, err)
			}
		}()
	}
	wg.Wait()
	l.rec.finish()
	l.sent = int(next.Load())
	return l
}
