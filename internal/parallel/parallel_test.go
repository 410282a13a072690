package parallel

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// withThreads runs f under a given Threads setting and restores the
// default afterwards (tests share process-global engine state).
func withThreads(t *testing.T, n int, f func()) {
	t.Helper()
	SetThreads(n)
	defer Configure(0, true)
	f()
}

// taskFunc adapts a closure onto Task.
type taskFunc func(lo, hi int)

func (f taskFunc) Run(lo, hi int) { f(lo, hi) }

// reducerFuncs adapts a body/merge closure pair onto Reducer.
type reducerFuncs struct {
	body  func(lo, hi int, acc []float64)
	merge func(acc []float64)
}

func (r reducerFuncs) Body(lo, hi int, acc []float64) { r.body(lo, hi, acc) }
func (r reducerFuncs) Merge(acc []float64)            { r.merge(acc) }

// TestForCoversRangeOnce asserts every index in [0,n) is visited exactly
// once for a spread of sizes, grains, and thread counts — including the
// degenerate empty and single-element inputs.
func TestForCoversRangeOnce(t *testing.T) {
	for _, threads := range []int{1, 2, 3, 8} {
		for _, n := range []int{0, 1, 2, 7, 64, 1000} {
			for _, grain := range []int{1, 7, 64} {
				visits := make([]int32, n)
				withThreads(t, threads, func() {
					ForTask(n, grain, taskFunc(func(lo, hi int) {
						if lo < 0 || hi > n || lo > hi {
							t.Errorf("chunk [%d,%d) outside [0,%d)", lo, hi, n)
						}
						for i := lo; i < hi; i++ {
							atomic.AddInt32(&visits[i], 1)
						}
					}))
				})
				for i, v := range visits {
					if v != 1 {
						t.Fatalf("threads=%d n=%d grain=%d: index %d visited %d times",
							threads, n, grain, i, v)
					}
				}
			}
		}
	}
}

// TestForEmptyNeverCalls asserts n<=0 never invokes the body.
func TestForEmptyNeverCalls(t *testing.T) {
	for _, n := range []int{0, -1} {
		ForTask(n, 1, taskFunc(func(lo, hi int) { t.Fatalf("body called for n=%d", n) }))
	}
}

// TestReduceBitwiseAcrossThreads is the determinism contract: a
// non-associative floating-point reduction must produce bitwise-identical
// results for Threads in {1, 2, 8}.
func TestReduceBitwiseAcrossThreads(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 5, 100, 10000} {
		// Wildly varying magnitudes make the sum order-sensitive.
		data := make([]float64, n)
		for i := range data {
			data[i] = rng.NormFloat64() * float64(int64(1)<<uint(rng.Intn(40)))
		}
		sum := func() float64 {
			var total float64
			ReduceWith(n, 64, 1, reducerFuncs{func(lo, hi int, acc []float64) {
				for i := lo; i < hi; i++ {
					acc[0] += data[i]
				}
			}, func(acc []float64) { total += acc[0] }})
			return total
		}
		var ref float64
		withThreads(t, 1, func() { ref = sum() })
		for _, threads := range []int{2, 8} {
			var got float64
			withThreads(t, threads, func() { got = sum() })
			if got != ref {
				t.Fatalf("n=%d threads=%d: sum %x != serial %x", n, threads, got, ref)
			}
		}
	}
}

// TestReduceMultiColumn exercises accLen > 1 (the GEMM partial shape) and
// checks the result against a plain serial accumulation within tolerance.
func TestReduceMultiColumn(t *testing.T) {
	const n, cols = 1000, 17
	rng := rand.New(rand.NewSource(3))
	data := make([]float64, n*cols)
	for i := range data {
		data[i] = rng.NormFloat64()
	}
	want := make([]float64, cols)
	for r := 0; r < n; r++ {
		for c := 0; c < cols; c++ {
			want[c] += data[r*cols+c]
		}
	}
	withThreads(t, 4, func() {
		got := make([]float64, cols)
		ReduceWith(n, 32, cols, reducerFuncs{func(lo, hi int, acc []float64) {
			for r := lo; r < hi; r++ {
				for c := 0; c < cols; c++ {
					acc[c] += data[r*cols+c]
				}
			}
		}, func(acc []float64) {
			for c, v := range acc {
				got[c] += v
			}
		}})
		for c := range want {
			d := got[c] - want[c]
			if d < -1e-9 || d > 1e-9 {
				t.Fatalf("col %d: got %v want %v", c, got[c], want[c])
			}
		}
	})
}

// TestReduceEmpty asserts n<=0 invokes neither body nor merge.
func TestReduceEmpty(t *testing.T) {
	ReduceWith(0, 8, 4, reducerFuncs{
		func(lo, hi int, acc []float64) { t.Fatal("body called") },
		func(acc []float64) { t.Fatal("merge called") }})
}

// TestReduceAccumulatorZeroed asserts every chunk sees a zeroed
// accumulator even when buffers are recycled across calls.
func TestReduceAccumulatorZeroed(t *testing.T) {
	withThreads(t, 4, func() {
		for iter := 0; iter < 10; iter++ {
			ReduceWith(512, 16, 8, reducerFuncs{func(lo, hi int, acc []float64) {
				for _, v := range acc {
					if v != 0 {
						t.Errorf("dirty accumulator: %v", acc)
						return
					}
				}
				acc[0] = 1e30 // poison for the next reuse
			}, func(acc []float64) {}})
		}
	})
}

// TestSetThreads covers the knob semantics: <=0 resets to GOMAXPROCS.
func TestSetThreads(t *testing.T) {
	defer Configure(0, true)
	SetThreads(5)
	if got := Threads(); got != 5 {
		t.Fatalf("Threads() = %d, want 5", got)
	}
	SetThreads(0)
	if got, want := Threads(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("Threads() = %d, want GOMAXPROCS %d", got, want)
	}
	SetDeterministic(false)
	if Deterministic() {
		t.Fatal("Deterministic() after SetDeterministic(false)")
	}
	SetDeterministic(true)
	if !Deterministic() {
		t.Fatal("!Deterministic() after SetDeterministic(true)")
	}
}

// TestConcurrentCallers mimics the SPMD runtime: several rank goroutines
// issuing parallel regions against the shared pool simultaneously. Run
// under -race this also proves pool-level data-race cleanliness.
func TestConcurrentCallers(t *testing.T) {
	withThreads(t, 4, func() {
		const ranks, n = 8, 4096
		var wg sync.WaitGroup
		results := make([]float64, ranks)
		for r := 0; r < ranks; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				out := make([]float64, n)
				ForTask(n, 64, taskFunc(func(lo, hi int) {
					for i := lo; i < hi; i++ {
						out[i] = float64(i + r)
					}
				}))
				var total float64
				ReduceWith(n, 64, 1, reducerFuncs{func(lo, hi int, acc []float64) {
					for i := lo; i < hi; i++ {
						acc[0] += out[i]
					}
				}, func(acc []float64) { total += acc[0] }})
				results[r] = total
			}(r)
		}
		wg.Wait()
		base := float64(n) * float64(n-1) / 2
		for r, got := range results {
			if want := base + float64(r*n); got != want {
				t.Fatalf("rank %d: %v want %v", r, got, want)
			}
		}
	})
}

// TestNonDeterministicModeStillCorrect verifies the relaxed mode computes
// the same value up to roundoff (it only regroups the summation).
func TestNonDeterministicModeStillCorrect(t *testing.T) {
	defer Configure(0, true)
	rng := rand.New(rand.NewSource(11))
	const n = 5000
	data := make([]float64, n)
	var want float64
	for i := range data {
		data[i] = rng.NormFloat64()
		want += data[i]
	}
	Configure(4, false)
	var got float64
	ReduceWith(n, 8, 1, reducerFuncs{func(lo, hi int, acc []float64) {
		for i := lo; i < hi; i++ {
			acc[0] += data[i]
		}
	}, func(acc []float64) { got += acc[0] }})
	d := got - want
	if d < -1e-9 || d > 1e-9 {
		t.Fatalf("got %v want %v", got, want)
	}
}

// countTask records visits per index through the Task interface.
type countTask struct{ visits []int32 }

func (t *countTask) Run(lo, hi int) {
	for i := lo; i < hi; i++ {
		atomic.AddInt32(&t.visits[i], 1)
	}
}

// TestForTaskCoversRangeOnce covers the range with one pointer Task
// reused across calls, the way the kernels bind theirs.
func TestForTaskCoversRangeOnce(t *testing.T) {
	for _, threads := range []int{1, 3, 8} {
		for _, n := range []int{0, 1, 7, 1000} {
			task := &countTask{visits: make([]int32, n)}
			withThreads(t, threads, func() {
				ForTask(n, 4, task)
			})
			for i, v := range task.visits {
				if v != 1 {
					t.Fatalf("threads=%d n=%d: index %d visited %d times", threads, n, i, v)
				}
			}
		}
	}
}

// sumReducer sums data[lo:hi] through the Reducer interface.
type sumReducer struct {
	data  []float64
	total float64
}

func (r *sumReducer) Body(lo, hi int, acc []float64) {
	for i := lo; i < hi; i++ {
		acc[0] += r.data[i]
	}
}

func (r *sumReducer) Merge(acc []float64) { r.total += acc[0] }

// TestTaskDispatchZeroAlloc asserts the pooled dispatch machinery itself
// performs no steady-state allocation, serial and parallel.
func TestTaskDispatchZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	task := &countTask{visits: make([]int32, 4096)}
	r := &sumReducer{data: make([]float64, 4096)}
	for _, threads := range []int{1, 4} {
		withThreads(t, threads, func() {
			run := func() {
				ForTask(len(task.visits), 16, task)
				ReduceWith(len(r.data), 16, 8, r)
			}
			for i := 0; i < 5; i++ {
				run() // warm the pools
			}
			n := testing.AllocsPerRun(20, run)
			// The serial path must be exactly zero. The parallel path is
			// bounded per *region*, not per element: sync.Pool misses and
			// — on starved hosts (AllocsPerRun pins GOMAXPROCS to 1) —
			// tickets outliving their region keep a job from being pooled
			// in time, costing a fresh descriptor.
			if threads == 1 && n != 0 {
				t.Errorf("threads=1 dispatch allocates %v times", n)
			}
			if threads > 1 && n > 8 {
				t.Errorf("threads=%d dispatch allocates %v times", threads, n)
			}
		})
	}
}

// TestClampPolicy pins the user-facing thread policy: requests beyond the
// core count cap at runtime.NumCPU(), requests within it (and the 0
// "reset" sentinel) pass through, and SetThreads itself stays exact so
// determinism sweeps can exceed cores.
func TestClampPolicy(t *testing.T) {
	defer Configure(0, true)
	ncpu := runtime.NumCPU()
	if got := Clamp(ncpu + 7); got != ncpu {
		t.Errorf("Clamp(%d) = %d, want %d", ncpu+7, got, ncpu)
	}
	if got := Clamp(1); got != 1 {
		t.Errorf("Clamp(1) = %d, want 1", got)
	}
	if got := Clamp(0); got != 0 {
		t.Errorf("Clamp(0) = %d, want passthrough 0", got)
	}
	// The engine-level setter is exact regardless of the policy.
	SetThreads(ncpu + 3)
	if got := Threads(); got != ncpu+3 {
		t.Errorf("SetThreads(%d) left Threads() = %d", ncpu+3, got)
	}
}

// dotsReducer is a MultiReducer of k independent column-weighted sums:
// reduction k sums data[k][i]*(i%7) over its rows into one accumulator
// slot per column, recording the merge sequence it sees.
type dotsReducer struct {
	data   [][]float64
	cols   []int
	totals [][]float64
	merges []int // reduction index of each Merge call, in call order
	lasts  []int // reductions whose final chunk was flagged, in call order
}

func (r *dotsReducer) Body(k, lo, hi int, acc []float64) {
	c := r.cols[k]
	for i := lo; i < hi; i++ {
		for j := 0; j < c; j++ {
			acc[j] += r.data[k][i*c+j] * float64(i%7)
		}
	}
}

func (r *dotsReducer) Merge(k int, acc []float64, last bool) {
	for j, v := range acc {
		r.totals[k][j] += v
	}
	r.merges = append(r.merges, k)
	if last {
		r.lasts = append(r.lasts, k)
	}
}

// one adapts reduction k of a dotsReducer to the single-reduction form.
type one struct {
	r *dotsReducer
	k int
}

func (o one) Body(lo, hi int, acc []float64) { o.r.Body(o.k, lo, hi, acc) }
func (o one) Merge(acc []float64)            { o.r.Merge(o.k, acc, false) }

// TestReduceAllMatchesReduceWith: fusing several reductions into one
// region changes no bit of any of them, for any thread count — each keeps
// the chunk schedule and ascending merge order ReduceWith gives it — and
// the merges arrive reduction by reduction with the final chunk flagged.
func TestReduceAllMatchesReduceWith(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	rs := []Reduction{{N: 1000, Grain: 64, AccLen: 3}, {N: 0, Grain: 8, AccLen: 2},
		{N: 77, Grain: 100, AccLen: 5}, {N: 513, Grain: 7, AccLen: 1}, {N: 64, Grain: 64, AccLen: 4}}
	fresh := func() *dotsReducer {
		r := &dotsReducer{}
		for _, s := range rs {
			r.cols = append(r.cols, s.AccLen)
			r.totals = append(r.totals, make([]float64, s.AccLen))
		}
		return r
	}
	data := make([][]float64, len(rs))
	for k, s := range rs {
		data[k] = make([]float64, s.N*s.AccLen)
		for i := range data[k] {
			data[k][i] = rng.NormFloat64()
		}
	}
	want := fresh()
	want.data = data
	withThreads(t, 1, func() {
		for k, s := range rs {
			ReduceWith(s.N, s.Grain, s.AccLen, one{want, k})
		}
	})
	for _, threads := range []int{1, 2, 3, 8} {
		got := fresh()
		got.data = data
		withThreads(t, threads, func() { ReduceAll(rs, got) })
		for k := range rs {
			for j, v := range want.totals[k] {
				if got.totals[k][j] != v {
					t.Fatalf("threads=%d reduction %d col %d: %x != %x", threads, k, j, got.totals[k][j], v)
				}
			}
		}
		if len(got.merges) != len(want.merges) {
			t.Fatalf("threads=%d: %d merges, want %d", threads, len(got.merges), len(want.merges))
		}
		for i, k := range want.merges {
			if got.merges[i] != k {
				t.Fatalf("threads=%d: merge %d belongs to reduction %d, want %d", threads, i, got.merges[i], k)
			}
		}
		if wantLasts := []int{0, 2, 3, 4}; len(got.lasts) != len(wantLasts) {
			t.Fatalf("threads=%d: final chunks flagged for %v, want %v", threads, got.lasts, wantLasts)
		} else {
			for i, k := range wantLasts {
				if got.lasts[i] != k {
					t.Fatalf("threads=%d: final chunks flagged for %v, want %v", threads, got.lasts, wantLasts)
				}
			}
		}
	}
}

// TestStatsCountRegionsAndChunks: an inline region counts as inline, a
// dispatched one as dispatched with every chunk credited to the caller or
// a worker by the time the region returns.
func TestStatsCountRegionsAndChunks(t *testing.T) {
	task := &countTask{visits: make([]int32, 4096)}
	withThreads(t, 1, func() {
		before := Stats()
		ForTask(len(task.visits), 16, task)
		after := Stats()
		if after.Inline-before.Inline != 1 || after.Dispatched != before.Dispatched {
			t.Errorf("threads=1: inline +%d dispatched +%d, want +1 +0",
				after.Inline-before.Inline, after.Dispatched-before.Dispatched)
		}
	})
	withThreads(t, 2, func() {
		before := Stats()
		ForTask(len(task.visits), 16, task) // chunk = 4096/(4·2) = 512: 8 chunks
		ForTask(8, 16, task)                // one chunk: inline
		after := Stats()
		if after.Dispatched-before.Dispatched != 1 || after.Inline-before.Inline != 1 {
			t.Errorf("threads=2: dispatched +%d inline +%d, want +1 +1",
				after.Dispatched-before.Dispatched, after.Inline-before.Inline)
		}
		chunks := after.CallerChunks - before.CallerChunks + after.WorkerChunks - before.WorkerChunks
		if chunks != 8 {
			t.Errorf("threads=2: %d chunks credited, want 8", chunks)
		}
	})
}

// TestReduceAllZeroAlloc: the fused reduction dispatches without
// allocating in steady state, like the primitives it fuses.
func TestReduceAllZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	rs := []Reduction{{N: 4096, Grain: 64, AccLen: 8}, {N: 512, Grain: 16, AccLen: 2}}
	r := &dotsReducer{cols: []int{8, 2}, totals: [][]float64{make([]float64, 8), make([]float64, 2)},
		data: [][]float64{make([]float64, 4096*8), make([]float64, 512*2)}}
	r.merges = make([]int, 0, 1<<16)
	withThreads(t, 1, func() {
		run := func() { r.merges = r.merges[:0]; ReduceAll(rs, r) }
		run()
		if n := testing.AllocsPerRun(20, run); n != 0 {
			t.Errorf("threads=1 ReduceAll allocates %v times", n)
		}
	})
}
