package main

import (
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// recorder collects one measurement window: when every completed
// operation began, how long it took and whether its spans were recorded.
// All times are reported as measured.
type recorder struct {
	start time.Time

	mu     sync.Mutex
	began  []time.Duration // since start, in completion order
	took   []time.Duration
	traced []bool

	// meters is set on the untraced half of a traced run, which also reads
	// what an end-to-end run must not pay for: the heap allocation count
	// and the host's speed before and after the window.
	meters   bool
	mallocs  [2]uint64
	spin     [2]time.Duration
	cpu      [2]time.Duration // the process's processor time at both ends
	liveHeap uint64           // bytes of heap still in use once the window's garbage is collected
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func heapAllocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// liveHeapBytes collects garbage and returns the heap that remains.
func liveHeapBytes() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

var spinSink float64

// spin times a fixed floating-point loop that touches no memory and calls
// nothing: the median of 9 passes. The sandbox's neighbours slow whole
// runs; this reading, reported as host.spin_ms by traced runs, says how
// fast the host was around a window. No other number is adjusted by it.
func spin() time.Duration {
	each := make([]float64, 9)
	for k := range each {
		t0 := time.Now()
		s := 0.0
		for i := 0; i < 1_400_000; i++ {
			s += float64(i) * 1.0000001
		}
		spinSink = s
		each[k] = float64(time.Since(t0))
	}
	return time.Duration(median(each))
}

func startRecorder(meters bool) *recorder {
	r := &recorder{meters: meters}
	if meters {
		r.spin[0] = spin()
		r.mallocs[0] = heapAllocs()
	}
	r.cpu[0] = cpuTime()
	r.start = time.Now()
	return r
}

// op records a completed operation that began at began and took took.
// traced says whether its spans were recorded.
func (r *recorder) op(began time.Time, took time.Duration, traced bool) {
	r.mu.Lock()
	r.began = append(r.began, began.Sub(r.start))
	r.took = append(r.took, took)
	r.traced = append(r.traced, traced)
	r.mu.Unlock()
}

// finish closes the window. The system measured must still be alive: what
// it holds in memory is read here.
func (r *recorder) finish() {
	r.cpu[1] = cpuTime()
	if r.meters {
		r.mallocs[1] = heapAllocs()
		r.spin[1] = spin()
	}
	r.liveHeap = liveHeapBytes()
}

// ops is the number of operations completed in the window.
func (r *recorder) ops() int { return len(r.took) }

// allocsPerOp is heap allocations per completed operation, process-wide.
func (r *recorder) allocsPerOp() float64 {
	return float64(r.mallocs[1]-r.mallocs[0]) / float64(r.ops())
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// latencies returns the latency in ms of every operation whose spans were
// (traced) or were not (!traced) recorded.
func (r *recorder) latencies(traced bool) []float64 {
	var out []float64
	for i, d := range r.took {
		if r.traced[i] == traced {
			out = append(out, ms(d))
		}
	}
	return out
}

// busy is the time during which at least one operation was in flight: the
// whole window for a closed loop, less for an open loop whose server
// sometimes has nothing to do.
func (r *recorder) busy() time.Duration {
	order := make([]int, len(r.began))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return r.began[order[a]] < r.began[order[b]] })
	var total, edge time.Duration // everything before edge is counted
	for _, i := range order {
		lo, hi := r.began[i], r.began[i]+r.took[i]
		if lo < edge {
			lo = edge
		}
		if hi > lo {
			total += hi - lo
			edge = hi
		}
	}
	return total
}

// traceOverhead is how much longer an operation took with its spans
// recorded than without, as a share. Recording alternates in short
// stretches over the window, so both medians see the same host.
func (r *recorder) traceOverhead() float64 {
	with, without := r.latencies(true), r.latencies(false)
	if len(with) == 0 || len(without) == 0 {
		return 0
	}
	return median(with)/median(without) - 1
}

// into writes the window's values: the end-to-end ones, and what the
// window cost the host.
func (r *recorder) into(values map[string]float64, nodesPerOp float64) error {
	sorted := sortedCopy(r.latencies(false))
	values["op_p50_ms"] = quantile(sorted, 0.5)
	values["op_p90_ms"] = quantile(sorted, 0.9)
	values["nodes_per_s"] = nodesPerOp * float64(r.ops()) / r.busy().Seconds()

	values["host.live_heap_mb"] = float64(r.liveHeap) / (1 << 20)
	values["host.cpu_ms_per_op"] = ms(r.cpu[1]-r.cpu[0]) / float64(r.ops())
	values["host.spin_ms"] = ms(r.spin[0]+r.spin[1]) / 2
	rss, err := peakRSSMB()
	values["host.peak_rss_mb"] = rss
	return err
}
