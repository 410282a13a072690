package parallel

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
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

// panelSums is a PanelReducer over a rows×cols table. Run "computes" the
// rows of its panels — copies them from src into out and marks them — and
// reduction k sums out's rows weighted by (row+k) mod 7 into its first
// AccLen columns, row by row, rows ascending: a chain per column that may
// be cut anywhere. Body reports a row it is handed before its panel
// completed, and records its calls.
type panelSums struct {
	t          *testing.T
	rs         []Reduction
	panel      int
	cols       int
	src, out   []float64
	written    []atomic.Bool
	mu         sync.Mutex
	calls      [][][2]int // per reduction, the row ranges Body was called on
	totals     [][]float64
	merges     []int // reduction index of each Merge call, in call order
	lasts      []int // reductions whose final chunk was flagged, in call order
	recordOnly bool  // skip the checks (the zero-allocation run)
}

func (p *panelSums) Run(lo, hi int) {
	rows := len(p.src) / p.cols
	for q := lo; q < hi; q++ {
		for i := q * p.panel; i < min((q+1)*p.panel, rows); i++ {
			copy(p.out[i*p.cols:(i+1)*p.cols], p.src[i*p.cols:(i+1)*p.cols])
			p.written[i].Store(true)
		}
	}
}

// sumRows is reduction k's body over rows [lo, hi) of data.
func sumRows(data []float64, cols, k int, lo, hi int, acc []float64) {
	w := func(i int) float64 { return float64((i + k) % 7) }
	for i := lo; i < hi; i++ {
		for j := range acc {
			acc[j] += data[i*cols+j] * w(i)
		}
	}
}

func (p *panelSums) Body(k, lo, hi int, acc []float64) {
	if !p.recordOnly {
		for i := lo; i < hi; i++ {
			if !p.written[i].Load() {
				p.t.Errorf("reduction %d handed row %d before its panel completed", k, i)
				return
			}
		}
		p.mu.Lock()
		p.calls[k] = append(p.calls[k], [2]int{lo, hi})
		p.mu.Unlock()
	}
	sumRows(p.out, p.cols, k, lo, hi, acc)
}

func (p *panelSums) Merge(k int, acc []float64, last bool) {
	for j, v := range acc {
		p.totals[k][j] += v
	}
	p.merges = append(p.merges, k)
	if last {
		p.lasts = append(p.lasts, k)
	}
}

func newPanelSums(t *testing.T, rows, cols, panel int, rs []Reduction, src []float64) *panelSums {
	p := &panelSums{t: t, rs: rs, panel: panel, cols: cols, src: src,
		out: make([]float64, rows*cols), written: make([]atomic.Bool, rows), calls: make([][][2]int, len(rs))}
	for _, s := range rs {
		p.totals = append(p.totals, make([]float64, s.AccLen))
	}
	return p
}

// TestPanelsMatchReduceWith: carrying reductions in a panel region — each
// chunk advanced in pieces by whoever completes its rows — changes no bit
// of any of them against ReduceWith over the same rows, for 1, 2 and 4
// threads; the merges arrive reduction by reduction with the final chunk
// flagged; every Body call is on completed rows, and a chunk's calls cover
// it once, ascending. The cases: chunks straddling 64-row panels at both ends
// (grain 85) or not at all (64), a chunk longer than its reduction (a
// whole sample block: grain 8 192), reductions that start mid-panel, an
// empty one, three sample blocks of 200 rows, and a region of one panel.
// One Panels value carries every region, growing and shrinking.
func TestPanelsMatchReduceWith(t *testing.T) {
	const panel, cols = 64, 8
	type region struct {
		rows int
		rs   []Reduction
	}
	regions := []region{
		{1000, []Reduction{{N: 1000, Grain: 85, AccLen: 3}, {N: 1000, Grain: 64, AccLen: 2},
			{Off: 10}, {Off: 100, N: 77, Grain: 100, AccLen: 5},
			{Off: 3, N: 513, Grain: 7, AccLen: 1}, {Off: 936, N: 64, Grain: 64, AccLen: 4},
			{Off: 30, N: 900, Grain: 85, AccLen: 8}}},
		{37, []Reduction{{N: 37, Grain: 85, AccLen: 3}, {N: 37, Grain: 8, AccLen: 2}}},
	}
	var batched []Reduction
	for b := 0; b < 3; b++ {
		batched = append(batched,
			Reduction{Off: 200 * b, N: 200, Grain: 85, AccLen: 8},
			Reduction{Off: 200 * b, N: 200, Grain: 8192, AccLen: 3},
			Reduction{Off: 200 * b, N: 200, Grain: 85, AccLen: 5},
			Reduction{Off: 200 * b, N: 200, Grain: 256, AccLen: 6},
			Reduction{Off: 200 * b, N: 200, Grain: 8192, AccLen: 2})
	}
	regions = append(regions, region{600, batched})

	rng := rand.New(rand.NewSource(21))
	var panels Panels
	for _, reg := range regions {
		src := make([]float64, reg.rows*cols)
		for i := range src {
			src[i] = rng.NormFloat64() * float64(int64(1)<<uint(rng.Intn(30)))
		}
		want := newPanelSums(t, reg.rows, cols, panel, reg.rs, src)
		var wantLasts []int
		withThreads(t, 1, func() {
			for k, s := range reg.rs {
				ReduceWith(s.N, s.Grain, s.AccLen, reducerFuncs{func(lo, hi int, acc []float64) {
					sumRows(src, cols, k, s.Off+lo, s.Off+hi, acc)
				}, func(acc []float64) { want.Merge(k, acc, false) }})
				if s.N > 0 {
					wantLasts = append(wantLasts, k)
				}
			}
		})
		for _, threads := range []int{1, 2, 4} {
			for rep := 0; rep < 4; rep++ {
				got := newPanelSums(t, reg.rows, cols, panel, reg.rs, src)
				withThreads(t, threads, func() { panels.For(reg.rows, panel, reg.rs, got) })
				what := fmt.Sprintf("rows=%d threads=%d rep %d", reg.rows, threads, rep)
				for k, s := range reg.rs {
					for j, v := range want.totals[k] {
						if got.totals[k][j] != v {
							t.Fatalf("%s reduction %d col %d: %x != %x", what, k, j, got.totals[k][j], v)
						}
					}
					calls := got.calls[k]
					slices.SortFunc(calls, func(a, b [2]int) int { return a[0] - b[0] })
					for i, c := range calls {
						chunkLo := s.Off + (c[0]-s.Off)/s.Grain*s.Grain
						chunkHi := min(chunkLo+s.Grain, s.Off+s.N)
						switch {
						case c[1] > chunkHi || c[0] >= c[1]:
							t.Fatalf("%s reduction %d: call %v is not inside chunk [%d, %d)", what, k, c, chunkLo, chunkHi)
						case c[0] != chunkLo && (i == 0 || calls[i-1][1] != c[0]):
							t.Fatalf("%s reduction %d: call %v does not continue the chunk's previous calls %v", what, k, c, calls[:i])
						}
					}
					if covered := len(calls) > 0 && calls[len(calls)-1][1] == s.Off+s.N; s.N > 0 && !covered {
						t.Fatalf("%s reduction %d: calls %v do not reach row %d", what, k, calls, s.Off+s.N)
					}
				}
				if !slices.Equal(got.merges, want.merges) {
					t.Fatalf("%s: merges by reduction %v, want %v", what, got.merges, want.merges)
				}
				if !slices.Equal(got.lasts, wantLasts) {
					t.Fatalf("%s: final chunks flagged for %v, want %v", what, got.lasts, wantLasts)
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

// TestPanelsZeroAlloc: a region that carries reductions runs without
// allocating once its Panels value has grown to the region, like the
// primitives it replaces (serially; a dispatched region's job descriptor
// is TestTaskDispatchZeroAlloc's).
func TestPanelsZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	const rows, cols = 4096, 8
	rs := []Reduction{{N: rows, Grain: 85, AccLen: 8}, {Off: 512, N: 512, Grain: 16, AccLen: 2}}
	r := newPanelSums(t, rows, cols, 64, rs, make([]float64, rows*cols))
	r.recordOnly = true
	r.merges = make([]int, 0, 1<<16)
	var panels Panels
	withThreads(t, 1, func() {
		run := func() { r.merges = r.merges[:0]; panels.For(rows, 64, rs, r) }
		run()
		if n := testing.AllocsPerRun(20, run); n != 0 {
			t.Errorf("threads=1 Panels.For allocates %v times", n)
		}
	})
}

// busyTask gives each index a few microseconds of arithmetic, so a region
// of a handful of chunks lasts long enough for a worker to join it.
type busyTask struct{ out []float64 }

func (b *busyTask) Run(lo, hi int) {
	for i := lo; i < hi; i++ {
		x := float64(i)
		for k := 0; k < 2000; k++ {
			x = x*0.999 + 1
		}
		b.out[i] = x
	}
}

// waitParked waits until no worker is in the poll loop.
func waitParked(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for polling.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d workers still poll 5 s after the bracket count left 1 (held %d)", polling.Load(), held.Load())
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// polledOver runs up to n dispatched regions and returns how many of them
// a worker joined from the poll; it stops early once one has, when stop
// says so.
func polledOver(n int, stop bool) uint64 {
	task := &busyTask{out: make([]float64, 8)}
	before := Stats().Polled
	for i := 0; i < n; i++ {
		ForTask(len(task.out), 1, task)
		if stop && Stats().Polled > before {
			break
		}
	}
	return Stats().Polled - before
}

// TestPolledOnlyUnderOneBracket: the workers poll for regions only while
// exactly one op bracket is open at Threads > 1. With no bracket, at
// Threads = 1, or with two brackets open, no region is joined from the
// poll; with one bracket at Threads = 2 (and two processors to run the
// worker beside the caller) the regions after the first find the worker
// polling.
func TestPolledOnlyUnderOneBracket(t *testing.T) {
	withThreads(t, 2, func() {
		waitParked(t)
		if n := polledOver(50, false); n != 0 {
			t.Errorf("no bracket: %d regions joined from the poll", n)
		}
		Begin()
		Begin()
		waitParked(t)
		if n := polledOver(50, false); n != 0 {
			t.Errorf("two brackets: %d regions joined from the poll", n)
		}
		End()
		SetThreads(1)
		waitParked(t)
		if n := polledOver(50, false); n != 0 {
			t.Errorf("threads=1: %d regions joined from the poll", n)
		}
		SetThreads(2)
		if runtime.GOMAXPROCS(0) >= 2 {
			if n := polledOver(1000, true); n == 0 {
				t.Error("one bracket at threads=2: no region of 1000 joined from the poll")
			}
		}
		End()
		waitParked(t)
	})
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("one bracket polls only with GOMAXPROCS >= 2; the cases that must not poll passed")
	}
}

// TestBracketClosedByPanic: a bracket closed by defer is closed when the
// op panics, so a failed op leaves no worker polling for the next one.
func TestBracketClosedByPanic(t *testing.T) {
	func() {
		defer func() { _ = recover() }()
		Begin()
		defer End()
		withThreads(t, 2, func() {
			polledOver(10, false)
			panic("op failed")
		})
	}()
	if n := held.Load(); n != 0 {
		t.Fatalf("%d brackets open after the op panicked, want 0", n)
	}
}

// TestPollersParkAfterEnd: once the bracket closes, every polling worker
// parks again within a bounded wait.
func TestPollersParkAfterEnd(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("one bracket polls only with GOMAXPROCS >= 2")
	}
	withThreads(t, 2, func() {
		Begin()
		polledOver(1000, true)
		End()
		waitParked(t)
	})
}

// TestBracketZeroAlloc: opening and closing a bracket allocates nothing.
func TestBracketZeroAlloc(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { Begin(); End() }); n != 0 {
		t.Errorf("Begin/End allocate %v times", n)
	}
}
