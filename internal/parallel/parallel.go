// Package parallel is the intra-rank compute engine: a persistent worker
// pool with chunked loop and reduction primitives that the tensor, nn,
// and gnn kernels run on. It is the second axis of parallelism in this
// library — goroutine ranks provide the SPMD (inter-rank) axis, and this
// package multiplies each rank's per-core throughput without changing any
// numerical result.
//
// Determinism contract. The paper's consistency properties (Eqs. 2–3) are
// asserted to near machine precision, and the partition-invariance and
// checkpoint-resumption tests require bitwise-reproducible arithmetic. The
// engine therefore guarantees that every result is bitwise-identical for
// any Threads setting:
//
//   - ForTask partitions [0,n) into disjoint chunks where each index is
//     written by exactly one worker, so chunking cannot change results;
//   - the reductions a Panels region carries derive their chunk structure
//     from the problem shape only (never from the thread count), give
//     every chunk a private partial accumulator, and merge the partials in
//     ascending chunk order on the caller. Within a chunk the rows are
//     accumulated in ascending order by one participant at a time; a
//     region advances a chunk in pieces, as its rows complete, so its
//     bodies must be such that splitting a chunk moves no bit (one chain
//     per accumulator element, rows ascending). The Threads=1 path
//     executes the *same* chunk schedule sequentially, so serial and
//     parallel runs agree bit-for-bit.
//
// This is the fixed-schedule reduction discipline: floating-point addition
// is not associative, so reproducibility requires the summation tree to be
// a function of the data layout alone.
//
// Allocation contract. The dispatch machinery itself allocates nothing in
// steady state: jobs are recycled through a pool, and a Panels region's
// accumulators live in the Panels value its caller keeps. Regions are
// dispatched through the Task and PanelReducer interfaces (ForTask,
// Panels.For), implemented by reusable bound argument structs, so no
// region allocates a closure.
//
// Region granularity. A region that goes parallel is handed to the
// workers through a channel, and a parked worker does not start at once:
// on the 2-processor KVM guest this repository is measured on it joins
// 100–200 µs after the send (a ForTask of 8 chunks × 20 µs takes 146 µs on
// 2 threads against 160 µs serial; 8 × 100 µs takes 519 µs against 400
// ideal). A region much shorter than that is run by the caller alone,
// which then still waits for whatever chunk the late worker did claim. So
// the rule for callers is: dispatch per layer stage, not per kernel. A
// region should carry hundreds of microseconds. internal/nn evaluates a
// whole MLP block (every Linear, ELU and LayerNorm of it, a row panel at a
// time) as one ForTask forward and one Panels.For backward, which carries
// all of the block's parameter-gradient reductions in the same region, and
// lets its caller put a row map at the head and the tail of the panel
// loop; internal/gnn uses that to make the gather or
// concatenation that feeds a block and the residual add that follows it
// part of the block's region, so a message-passing layer is at most three
// regions (edge stage, aggregation of the rows the halo exchange sends,
// node stage) with the exchange between the last two; the node stage's
// head aggregates the other rows, so on one rank a layer is two. A
// LargeConfig prediction went from 191 dispatched regions (one per kernel
// call) to 34 (one per block and per loop around it) to 14 to 10, a
// training step from 468 to 81 to 41 to 37 to 26; internal/gnn's
// TestParallelDispatchBudget pins both. Stats counts dispatched and inline
// regions and who ran the chunks; a caller share of the chunks near 1 is
// the sign of regions that are too small.
//
// Op brackets. An op of ten such regions still pays ten wakes, so an op —
// one prediction, rollout or training step, the unit a caller waits for —
// is bracketed by Begin and End. While exactly one bracket is open in the
// process, a worker that has finished a job does not park: it polls the
// queue, yielding its processor (runtime.Gosched) between polls, so the
// op's next region finds it awake (Stats' Polled). At most
// min(GOMAXPROCS, Threads) − 1 workers poll at once, and each keeps a CPU
// busy for the rest of the op, its serial code and exchange waits
// included; a runnable goroutine still gets the processor at the next
// yield. With no bracket open, with two or more (goroutine ranks, concurrent sessions:
// their regions already keep the processors busy), or at Threads = 1, an
// idle worker parks on the channel and costs a parked goroutine, nothing
// else; a poller notices within one poll and parks too. The engine never
// spins waiting for a region to complete.
//
// The pool is process-wide and shared by all goroutine ranks: concurrent
// regions from different ranks interleave their chunks over the same
// workers. Each calling rank also executes chunks itself, so R ranks
// at Threads = T run on at most R + (T-1) goroutines — the pool adds at
// most T-1 workers on top of the SPMD ranks, never R×T.
package parallel

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Task is a parallel-region body bound to its arguments. Implementations
// are typically small structs owned by the caller (a layer, or a pool in
// the tensor package) and reused across calls, so dispatching a region
// does not allocate a closure.
type Task interface {
	// Run processes indices [lo, hi). It may be called concurrently on
	// disjoint ranges.
	Run(lo, hi int)
}

// job is one parallel region: a Task plus the chunk geometry and the
// bookkeeping that lets any number of workers claim chunks until none
// remain. Jobs are pooled; refs counts the caller plus every queued
// ticket, and the job returns to the pool only when all of them are done,
// so reuse can never race a late-arriving worker.
type job struct {
	task    Task
	chunk   int
	n       int
	chunks  int32
	next    atomic.Int32
	pending atomic.Int32
	refs    atomic.Int32
	done    chan struct{}
}

// run claims and executes chunks until the job is exhausted, crediting
// each to ran (the caller's or the workers' chunk counter) before it is
// marked finished, so the counts are complete when the region returns.
// The last chunk to finish signals completion.
func (j *job) run(ran *atomic.Uint64) {
	for {
		c := j.next.Add(1) - 1
		if c >= j.chunks {
			return
		}
		lo := int(c) * j.chunk
		hi := lo + j.chunk
		if hi > j.n {
			hi = j.n
		}
		j.task.Run(lo, hi)
		ran.Add(1)
		if j.pending.Add(-1) == 0 {
			j.done <- struct{}{}
		}
	}
}

// release drops one reference; the last holder recycles the job.
func (j *job) release() {
	if j.refs.Add(-1) == 0 {
		j.task = nil
		jobPool.Put(j)
	}
}

var (
	// threads is the current participant bound per parallel region
	// (caller + pool workers); 0 means "not yet initialized".
	threads atomic.Int32

	// queue feeds jobs to the persistent workers. Workers are spawned
	// lazily and live for the process lifetime; an idle worker is a parked
	// goroutine, or a polling one while a lone op is open (Begin).
	queue     chan *job
	workerMu  sync.Mutex
	workers   int
	queueOnce sync.Once

	// held counts the open op brackets (Begin without its End); polling
	// counts the workers in next's poll loop.
	held, polling atomic.Int32

	// jobPool recycles job descriptors (with their reusable completion
	// channels) between parallel regions.
	jobPool = sync.Pool{New: func() any {
		return &job{done: make(chan struct{}, 1)}
	}}
)

func initQueue() {
	queueOnce.Do(func() { queue = make(chan *job, 1024) })
}

// ensureWorkers grows the persistent worker set to at least n goroutines.
func ensureWorkers(n int) {
	if n <= 0 {
		return
	}
	initQueue()
	workerMu.Lock()
	for workers < n {
		go func() {
			for {
				j := next()
				j.run(&counters.workerChunks)
				j.release()
			}
		}()
		workers++
	}
	workerMu.Unlock()
}

// next returns a worker's next job. It polls the queue, yielding between
// polls, while exactly one op bracket is open and Threads > 1, if fewer
// than min(GOMAXPROCS, Threads) − 1 workers already poll; otherwise it
// parks on the queue until a region's send wakes it.
func next() *job {
	if int(polling.Add(1)) < min(runtime.GOMAXPROCS(0), int(threads.Load())) {
		for held.Load() == 1 && threads.Load() > 1 {
			select {
			case j := <-queue:
				polling.Add(-1)
				counters.polled.Add(1)
				return j
			default:
				runtime.Gosched()
			}
		}
	}
	polling.Add(-1)
	return <-queue
}

// Begin opens an op bracket and End closes it (package comment, "Op
// brackets"): while exactly one is open in the process, the workers poll
// for its regions instead of parking between them. Call End by defer, so
// that a panic closes the bracket too, and close it before the op hands
// its result on, so no worker polls while another goroutine continues the
// work. An op that runs another bracketed op inside it calls that op's
// unbracketed body: a nested bracket counts two and stops the polling.
// Neither call allocates.
func Begin() { held.Add(1) }

// End closes the bracket Begin opened.
func End() { held.Add(-1) }

// loadThreads returns the active thread bound, initializing it to
// GOMAXPROCS on first use.
func loadThreads() int {
	t := threads.Load()
	if t == 0 {
		SetThreads(0)
		t = threads.Load()
	}
	return int(t)
}

// SetThreads bounds the number of participants (calling goroutine plus
// pool workers) per parallel region. n <= 0 resets to runtime.GOMAXPROCS.
// With n == 1 every primitive runs inline on the caller — the same chunk
// schedule, executed sequentially.
//
// SetThreads applies the requested count verbatim. User-facing entry
// points (meshgnn.SetParallelism, gnn.Config.Threads, the commands'
// -threads) first pass their request through Clamp, which caps it at
// runtime.NumCPU() — the engine-level setter stays exact so determinism
// tests can sweep thread counts past the core count.
func SetThreads(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	threads.Store(int32(n))
	ensureWorkers(n - 1)
}

// Threads returns the current participant bound.
func Threads() int { return loadThreads() }

// Clamp returns the effective thread count for a user request: n itself
// when it is within the core count, runtime.NumCPU() otherwise. The
// kernels are compute-bound, so workers beyond the core count only
// time-slice against each other — on a 1-CPU box, 8 threads more than
// double the training step time while producing identical bits
// (determinism is schedule-fixed, not thread-fixed). n <= 0 passes
// through (it means "reset to GOMAXPROCS", which the runtime already
// bounds sensibly).
func Clamp(n int) int {
	if n <= 0 {
		return n
	}
	if ncpu := runtime.NumCPU(); n > ncpu {
		return ncpu
	}
	return n
}

// Deterministic reports whether the reductions run the fixed schedule.
// They always do, so it returns true. It and Configure's deterministic
// parameter stay only because the repository benchmark
// (benchmark/layers.go) saves and restores them; ROADMAP item 12, which
// edits that benchmark, deletes them.
func Deterministic() bool { return true }

// Configure is SetThreads(threads) for callers that still pass the
// reduction mode (see Deterministic): deterministic must be true, as the
// fixed schedule is the only one, and false panics.
func Configure(threads int, deterministic bool) {
	if !deterministic {
		panic("parallel: Configure with deterministic = false: the fixed-schedule reductions are the only ones")
	}
	SetThreads(threads)
}

// Counters is a snapshot of the engine's process-wide region counters.
// They only ever increase; read them by delta around the code of interest,
// like comm.Stats. A region is one ForTask or Panels.For call with
// work to do.
type Counters struct {
	// Dispatched counts regions offered to the worker pool (Threads > 1
	// and more than one chunk): each costs a channel send and, unless a
	// worker is polling for it, a worker wake, which is what the
	// region-granularity rule in the package comment budgets.
	Dispatched uint64
	// Inline counts regions run entirely on the caller (Threads == 1, or
	// a single chunk).
	Inline uint64
	// CallerChunks and WorkerChunks split the chunks of dispatched regions
	// by who ran them. A caller share near 1 means the workers arrive
	// after the work is done — the regions are too small.
	CallerChunks, WorkerChunks uint64
	// Polled counts the regions a worker joined from the poll of an op
	// bracket, without a wake.
	Polled uint64
}

var counters struct {
	dispatched, inline, callerChunks, workerChunks, polled atomic.Uint64
}

// Stats returns the current counters. It takes no lock and allocates
// nothing; regions still running on other goroutines may be mid-update.
func Stats() Counters {
	return Counters{
		Dispatched:   counters.dispatched.Load(),
		Inline:       counters.inline.Load(),
		CallerChunks: counters.callerChunks.Load(),
		WorkerChunks: counters.workerChunks.Load(),
		Polled:       counters.polled.Load(),
	}
}

// runJob executes a chunked region with up to t participants. The caller
// always participates, so the region completes even if every pool worker
// is busy with other ranks' jobs.
func runJob(n, chunk, numChunks, t int, task Task) {
	j := jobPool.Get().(*job)
	j.task = task
	j.chunk = chunk
	j.n = n
	j.chunks = int32(numChunks)
	j.next.Store(0)
	j.pending.Store(int32(numChunks))
	tickets := t - 1
	if tickets > numChunks-1 {
		tickets = numChunks - 1
	}
	// References must cover every ticket before it is offered, so a worker
	// finishing instantly cannot drop the count to zero while the caller
	// still runs; unoffered tickets are refunded below.
	j.refs.Store(int32(tickets) + 1)
	initQueue()
	issued := 0
offer:
	for i := 0; i < tickets; i++ {
		select {
		case queue <- j:
			issued++
		default:
			// Queue saturated: every worker already has work queued up;
			// the caller and whoever picked up earlier tickets finish it.
			break offer
		}
	}
	if issued < tickets {
		j.refs.Add(int32(issued - tickets))
	}
	counters.dispatched.Add(1)
	j.run(&counters.callerChunks)
	<-j.done
	j.release()
}

// chunkFor returns the ForTask chunk length: at least grain, enlarged so
// each participant sees ~4 chunks for straggler rebalancing.
func chunkFor(n, grain, t int) int {
	if grain < 1 {
		grain = 1
	}
	chunk := grain
	if c := (n + 4*t - 1) / (4 * t); c > chunk {
		chunk = c
	}
	return chunk
}

// ForTask runs task over disjoint index ranges covering [0, n). grain is
// the minimum chunk length; the engine may enlarge chunks to keep
// per-chunk overhead negligible. Each index lands in exactly one chunk, so
// the result is independent of both chunking and scheduling — safe for any
// kernel whose iterations write disjoint outputs. Dispatch performs no
// heap allocation.
func ForTask(n, grain int, task Task) {
	if n <= 0 {
		return
	}
	t := loadThreads()
	chunk := chunkFor(n, grain, t)
	numChunks := (n + chunk - 1) / chunk
	if t == 1 || numChunks == 1 {
		counters.inline.Add(1)
		task.Run(0, n)
		return
	}
	runJob(n, chunk, numChunks, t, task)
}

// Reduction is one row reduction a Panels region carries: rows [Off,
// Off+N) of the region's rows, cut into chunks of Grain rows (at least
// one) from row Off on, each chunk reduced into a private zeroed
// accumulator of length AccLen. The chunk advances as its rows complete,
// so the body must take it in pieces exactly: its bits for rows [lo, m)
// then [m, hi) into one accumulator are those of [lo, hi) in one call,
// for every m.
type Reduction struct {
	Off, N, Grain, AccLen int
}

// PanelReducer is the body of a Panels region.
type PanelReducer interface {
	// Run processes panels [lo, hi), as Task.Run does indices; panel q is
	// rows [q·panel, (q+1)·panel) of the region's rows.
	Task
	// Body accumulates rows [lo, hi) of reduction k into acc, its chunk's
	// accumulator, zeroed before the chunk's first call. It is called
	// only on rows whose panels have completed; the calls for one chunk
	// are sequential, in ascending row order, and cover it once.
	Body(k, lo, hi int, acc []float64)
	// Merge folds one accumulator of reduction k into its destination.
	// Merge calls are sequential on the calling goroutine after the
	// panels: reductions in ascending k, each reduction's chunks in
	// ascending order; last marks a reduction's final chunk.
	Merge(k int, acc []float64, last bool)
}

// Panels is the state of a panel region that carries reductions: per
// chunk its accumulator, its row cursor and its token, per panel whether
// it has completed. A caller keeps one across calls and runs one region
// on it at a time; it grows to the largest region it has carried, after
// which a region allocates nothing. The zero value is ready.
type Panels struct {
	r           PanelReducer
	rs          []Reduction
	rows, panel int
	chunk       []int // chunk length per reduction
	first       []int // index in chunks of each reduction's first chunk
	chunks      []panelChunk
	done        []atomic.Bool // per panel
	acc         []float64
}

// panelChunk is one chunk of one reduction: rows [lo, hi), the first cur
// of them accumulated. cur and acc belong to whoever holds busy.
type panelChunk struct {
	k, lo, hi, cur int
	acc            []float64
	busy           atomic.Bool
}

type panelTask Panels

// For runs r over the panels of rows rows, panel rows each, as ForTask
// runs a Task over them — one region — and carries the reductions rs in
// the same region: when a panel completes, every chunk its rows belong to
// advances over the longest completed run of rows from its cursor, while
// those rows are still in the cache of whoever finished them. One
// participant advances a chunk at a time. The merges follow the region on
// the caller, chunks ascending. So every reduction's summation tree is
// fixed: its chunks of Grain rows, the rows ascending within a chunk, the
// merges ascending — whatever the thread count and whichever participant
// advanced what: bitwise, given that a body is what Reduction says it
// must be. The grains must therefore derive from the problem shape only,
// never from Threads().
func (p *Panels) For(rows, panel int, rs []Reduction, r PanelReducer) {
	if rows <= 0 {
		return
	}
	p.r, p.rs, p.rows, p.panel = r, rs, rows, panel
	p.chunk, p.first = p.chunk[:0], p.first[:0]
	total, accLen := 0, 0
	for _, s := range rs {
		if s.Off < 0 || s.N < 0 || s.Off+s.N > rows {
			panic(fmt.Sprintf("parallel: reduction over rows [%d, %d) outside the region's %d", s.Off, s.Off+s.N, rows))
		}
		c := max(s.Grain, 1)
		p.chunk = append(p.chunk, c)
		p.first = append(p.first, total)
		if s.N > 0 {
			n := (s.N + c - 1) / c
			total += n
			accLen += n * s.AccLen
		}
	}
	if cap(p.chunks) < total {
		p.chunks = make([]panelChunk, total)
	}
	p.chunks = p.chunks[:total]
	if cap(p.acc) < accLen {
		p.acc = make([]float64, accLen)
	}
	np := (rows + panel - 1) / panel
	if cap(p.done) < np {
		p.done = make([]atomic.Bool, np)
	}
	p.done = p.done[:np]
	for q := range p.done {
		p.done[q].Store(false)
	}
	i, off := 0, 0
	for k, s := range rs {
		for lo := 0; lo < s.N; lo += p.chunk[k] {
			ch := &p.chunks[i]
			ch.k, ch.lo, ch.hi = k, s.Off+lo, s.Off+min(lo+p.chunk[k], s.N)
			ch.cur = ch.lo
			ch.acc = p.acc[off : off+s.AccLen]
			off += s.AccLen
			i++
		}
	}
	ForTask(np, 1, (*panelTask)(p))
	i = 0
	for k, s := range rs {
		for lo := 0; lo < s.N; lo += p.chunk[k] {
			r.Merge(k, p.chunks[i].acc, lo+p.chunk[k] >= s.N)
			i++
		}
	}
	p.r, p.rs = nil, nil
}

// Run completes panels [lo, hi) one at a time, advancing after each every
// chunk it holds rows of.
func (t *panelTask) Run(lo, hi int) {
	p := (*Panels)(t)
	for q := lo; q < hi; q++ {
		p.r.Run(q, q+1)
		p.done[q].Store(true)
		r0, r1 := q*p.panel, min((q+1)*p.panel, p.rows)
		for k, s := range p.rs {
			a, b := max(r0, s.Off), min(r1, s.Off+s.N)
			if a >= b {
				continue
			}
			for c := (a - s.Off) / p.chunk[k]; c <= (b-1-s.Off)/p.chunk[k]; c++ {
				p.advance(p.first[k] + c)
			}
		}
	}
}

// advance takes chunk i as far as its completed rows allow, if no one else
// holds it. A panel that completes while the chunk is held finds it taken
// and leaves its rows to the holder, which therefore looks again after
// letting go: the completion was stored before the failed take, so the
// second look sees it.
func (p *Panels) advance(i int) {
	ch := &p.chunks[i]
	for ch.busy.CompareAndSwap(false, true) {
		cur := ch.cur
		if end := p.reach(cur, ch.hi); end > cur {
			if cur == ch.lo {
				clear(ch.acc)
			}
			p.r.Body(ch.k, cur, end, ch.acc)
			ch.cur, cur = end, end
		}
		ch.busy.Store(false)
		if p.reach(cur, ch.hi) == cur {
			return
		}
	}
}

// reach returns how far the rows from cur are complete: the first row at
// or after cur whose panel has not completed, or hi.
func (p *Panels) reach(cur, hi int) int {
	for cur < hi && p.done[cur/p.panel].Load() {
		cur = (cur/p.panel + 1) * p.panel
	}
	return min(cur, hi)
}
