package meshgnn

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"meshgnn/internal/comm"
	"meshgnn/internal/gnn"
	"meshgnn/internal/tensor"
)

// Server is the in-situ serving frontend of a partitioned system: every
// rank runs persistently with a compiled forward-only engine (see
// Inference), and requests — node-feature snapshots — are dispatched to
// all ranks collectively. The rank fabric, halo exchangers, graph splits,
// and engine arenas are built once at Serve time and reused by every
// request, so the steady-state request path performs the same
// zero-allocation fused forward the engine gates assert.
//
// A Server is safe for concurrent use. With ServeOptions.Sessions == S it
// runs S independent serving sessions — each a full collective group with
// its own rank goroutines, fabric, halo exchangers, admission queue, and
// coalescing dispatcher — behind one front door. All sessions reference
// ONE compiled engine core, at either precision (the parameter twins,
// pre-packed weight panels, and static-edge cache are immutable after
// compile; only the per-session arenas, staging, output buffers and task
// scaffolding are private), so S sessions cost one compile plus S working
// sets. Each submitted request is routed to the least-loaded live session;
// up to S requests evaluate concurrently, and every result is
// bitwise-identical to the single-session engine's.
//
// Requests enter a session's bounded admission queue and its dispatcher
// serializes them into collective evaluations; with ServeOptions.MaxBatch
// > 1 the dispatcher coalesces queued compatible requests into one
// stacked evaluation (PredictBatch; a lone request is a batch of one), so B
// concurrent submitters share a single GEMM sweep per layer and a single
// halo frame per neighbor. Batching is an amortization, never a semantic:
// each member's result is bitwise-identical to an unbatched evaluation,
// and each member keeps its own deadline — a member abandoned by its
// submitter is dropped from the result without poisoning cohabitants.
//
// Failure contract: every rank-side failure is caught per request — a
// panicking rank recovers, records a classified error on the request, and
// the caller's Predict/Rollout returns the root cause (errors.Is
// ErrPeerDown / ErrTimeout / ErrCorruptFrame as appropriate) instead of
// hanging or crashing the process. Because a failed collective leaves a
// fabric desynchronized mid-pattern, failure is terminal PER SESSION: the
// first rank failure latches that session fatal, its in-flight submitters
// unblock with the root cause, and subsequent requests route to the
// surviving sessions — one wedged session degrades capacity, it does not
// kill the server. Only when every session has failed do submissions
// return the server-level terminal error; Close always returns
// deterministically, draining every session. Serving ranks evaluate under
// a receive deadline (ServeOptions.RecvTimeout, 30s default, scaled by
// the step count for rollouts), so peers of a dead rank unwind within the
// deadline rather than blocking forever.
type Server struct {
	sys        *System
	ranks      int
	in, out    int // model input/output widths, for request validation
	reqTimeout time.Duration
	recvTime   time.Duration
	maxBatch   int
	window     time.Duration

	// core is the shared compiled engine all sessions reference; every
	// rank of every session serves a Session of it.
	core *gnn.Inference

	sessions  []*serveSession
	closeOnce sync.Once
	reqPool   sync.Pool // *serveReq scaffolding, recycled across requests
	batchPool sync.Pool // *serveBatch scaffolding

	mu     sync.Mutex
	closed bool
	err    error // terminal error, set on Close
}

// serveSession is one independent serving session: a collective group of
// rank goroutines over its own fabric, fed by its own admission queue and
// coalescing dispatcher, with its own fatal latch. Sessions share the
// server's compiled core and request/batch pools; everything with mutable
// per-request state is per-session.
type serveSession struct {
	srv *Server
	id  int

	queue    chan *serveReq // bounded admission queue, feeds the dispatcher
	subWG    sync.WaitGroup // in-flight enqueue attempts, gates close(queue)
	dispDone chan struct{}  // closed when the dispatcher has exited
	batches  []chan *serveBatch

	inflight atomic.Int64 // requests admitted and not yet resolved

	fatalOnce sync.Once
	fatal     chan struct{} // closed on the session's first rank-fatal failure
	done      chan struct{} // closed when the session's rank world has exited

	mu         sync.Mutex
	fatalCause []error // rank failures in arrival order
	runErr     error   // RunOn's result, valid once done is closed
}

// ServeOptions tunes the request path and failure handling of a serving
// world. The zero value is Serve's default configuration.
type ServeOptions struct {
	// RequestTimeout bounds every Predict/Rollout call (overridable per
	// call with PredictTimeout/RolloutTimeout). 0 means no deadline.
	RequestTimeout time.Duration
	// RecvTimeout bounds every blocking receive inside the collective
	// evaluation on each serving rank, so a rank whose peer died unwinds
	// with an ErrTimeout-classified failure instead of hanging. 0 means
	// the 30s default; negative disables the bound entirely. Rollouts
	// scale the bound by their step count — a long trajectory is not a
	// stall. A request's own deadline never tightens this bound: the
	// deadline limits how long the submitter waits, not how long the
	// evaluation may run.
	RecvTimeout time.Duration
	// MaxBatch caps how many queued prediction requests a session's
	// dispatcher fuses into one block-diagonal collective evaluation.
	// <= 1 serves every request on its own (the default). Only requests
	// with the same step count coalesce.
	MaxBatch int
	// BatchWindow is how long a dispatcher holds an admitted request
	// open for co-travelers before dispatching a partial batch. 0 means
	// a 200µs default when MaxBatch > 1; negative disables the window
	// (only requests already queued coalesce).
	BatchWindow time.Duration
	// Sessions is the number of independent serving sessions behind the
	// front door — S full collective groups referencing one compiled
	// engine core, with requests routed to the least-loaded live session.
	// <= 1 means a single session (the pre-session behavior, exactly).
	Sessions int
	// WrapTransport interposes on every rank's transport endpoint before
	// serving starts — the fault-injection hook (FaultPlan.Wrap), the
	// link-latency emulator (comm.LinkDelay), and any future interposer.
	// Applied to every session's fabric; nil serves on the bare fabric.
	WrapTransport func(Transport) Transport
	// WrapSession, when non-nil, supplies the transport interposer per
	// session instead of WrapTransport — how a fault plan targets ONE
	// session's fabric while its siblings serve untouched. Returning nil
	// for a session serves it on the bare fabric.
	WrapSession func(session int) func(Transport) Transport
}

// defaultServeRecvTimeout bounds collective receives on serving ranks
// when ServeOptions doesn't say otherwise: generous against slow ranks,
// small against a request stream stalled on a dead peer.
const defaultServeRecvTimeout = 30 * time.Second

// defaultBatchWindow is how long a batching server waits for co-travelers
// when ServeOptions doesn't say otherwise: long enough for concurrent
// submitters to meet in the queue, short against request latency.
const defaultBatchWindow = 200 * time.Microsecond

func (o ServeOptions) recvTimeout() time.Duration {
	if o.RecvTimeout == 0 {
		return defaultServeRecvTimeout
	}
	if o.RecvTimeout < 0 {
		return 0
	}
	return o.RecvTimeout
}

// serveReq is one submitted request: a per-rank snapshot in, a per-rank
// prediction (steps == 0) or steps-application trajectory (steps > 0)
// out. Each rank writes only its own outs/trajs/errs slot; the submitter
// reads them after done is signaled (the channel send is the
// happens-before edge).
//
// Requests are pooled: the scaffolding (slices, done channel) is recycled
// once both the submitter and the rank side have released their
// reference. A submitter that times out releases early and walks away;
// the ranks keep the request alive until they finish writing into it, so
// a late result lands in an orphaned object, never in a recycled one.
type serveReq struct {
	inputs []*tensor.Matrix
	steps  int
	outs   []*tensor.Matrix
	trajs  [][]*tensor.Matrix
	errs   []error

	mu      sync.Mutex
	pending int
	done    chan struct{} // capacity 1; signaled by the last rank
	refs    atomic.Int32  // submitter + rank side; 0 recycles
	pool    *sync.Pool
}

// finish records one rank's outcome; the last rank signals done and drops
// the rank side's reference.
func (req *serveReq) finish(rank int, err error) {
	req.errs[rank] = err
	req.mu.Lock()
	req.pending--
	last := req.pending == 0
	req.mu.Unlock()
	if last {
		req.done <- struct{}{}
		req.release(1)
	}
}

// release drops n references and recycles the request at zero.
func (req *serveReq) release(n int32) {
	if req.refs.Add(-n) == 0 {
		req.pool.Put(req)
	}
}

// getReq produces request scaffolding from the pool (or fresh), cleared
// of any previous occupant's results so a recycled request can never leak
// stale matrices into a new response.
func (srv *Server) getReq() *serveReq {
	req, _ := srv.reqPool.Get().(*serveReq)
	if req == nil {
		req = &serveReq{
			inputs: make([]*tensor.Matrix, srv.ranks),
			outs:   make([]*tensor.Matrix, srv.ranks),
			trajs:  make([][]*tensor.Matrix, srv.ranks),
			errs:   make([]error, srv.ranks),
			done:   make(chan struct{}, 1),
			pool:   &srv.reqPool,
		}
	}
	// A previous occupant abandoned by its submitter left its completion
	// signal unconsumed; drain it so this request starts unsignaled.
	select {
	case <-req.done:
	default:
	}
	for i := 0; i < srv.ranks; i++ {
		req.inputs[i] = nil
		req.outs[i] = nil
		req.trajs[i] = nil
		req.errs[i] = nil
	}
	req.pending = srv.ranks
	req.refs.Store(2)
	return req
}

// timerPool recycles deadline timers across requests; Go 1.23+ timer
// semantics make Stop/Reset safe without channel draining.
var timerPool sync.Pool

func getTimer(d time.Duration) *time.Timer {
	t, _ := timerPool.Get().(*time.Timer)
	if t == nil {
		return time.NewTimer(d)
	}
	t.Reset(d)
	return t
}

func putTimer(t *time.Timer) {
	t.Stop()
	timerPool.Put(t)
}

// serveBatch is one collective evaluation: one or more coalesced requests
// with the same step count, their per-rank inputs gathered member-major
// for the engine's batched entry points. Each rank finishes every
// member's slot; the last rank to complete recycles the batch.
type serveBatch struct {
	steps   int
	bound   time.Duration // effective per-rank receive deadline
	members []*serveReq
	ins     [][]*tensor.Matrix // [rank][member]
	pending atomic.Int32
}

func (srv *Server) getBatch(first *serveReq) *serveBatch {
	b, _ := srv.batchPool.Get().(*serveBatch)
	if b == nil {
		b = &serveBatch{ins: make([][]*tensor.Matrix, srv.ranks)}
	}
	b.steps = first.steps
	b.bound = srv.recvBound(first.steps)
	b.members = b.members[:0]
	for r := range b.ins {
		b.ins[r] = b.ins[r][:0]
	}
	b.pending.Store(int32(srv.ranks))
	b.addMember(first)
	return b
}

func (b *serveBatch) addMember(req *serveReq) {
	b.members = append(b.members, req)
	for r := range b.ins {
		b.ins[r] = append(b.ins[r], req.inputs[r])
	}
}

func (srv *Server) putBatch(b *serveBatch) {
	for i := range b.members {
		b.members[i] = nil
	}
	b.members = b.members[:0]
	for r := range b.ins {
		for i := range b.ins[r] {
			b.ins[r][i] = nil
		}
		b.ins[r] = b.ins[r][:0]
	}
	srv.batchPool.Put(b)
}

// recvBound is the effective per-rank receive deadline for an evaluation
// of the given step count. A rollout performs steps sequential collective
// applications, so the per-receive bound scales with the trajectory
// length — a long rollout on a healthy fabric is not a stall and must not
// classify as ErrTimeout.
func (srv *Server) recvBound(steps int) time.Duration {
	if srv.recvTime <= 0 {
		return 0
	}
	if steps > 1 {
		return srv.recvTime * time.Duration(steps)
	}
	return srv.recvTime
}

// Serve starts persistent serving ranks over the given transport and
// exchange mode with default options; see ServeWith.
func (s *System) Serve(kind TransportKind, mode ExchangeMode, model *Model) (*Server, error) {
	return s.ServeWith(kind, mode, model, ServeOptions{})
}

// ServeWith starts persistent serving ranks over the given transport and
// exchange mode. The model is compiled ONCE before ServeWith returns —
// NewInference, a snapshot: one immutable engine core (parameter copies of
// the configured precision, pre-packed weight panels, static-edge cache)
// referenced by every rank of every session — so the caller's model stays
// free for further training and S sessions cost one compile. Each
// session's admission queue holds 2*MaxBatch requests; a submitter finding
// it full blocks (under its own deadline) until the dispatcher drains a
// slot. Supported
// transports are InProcess and Sockets (goroutine ranks — request matrices
// cross no process boundary); Processes ranks cannot receive in-memory
// requests, so drive the engine directly inside RunOn for that case (as
// cmd/consistency -transport=both does).
//
// Close the server to release the rank goroutines of every session.
func (s *System) ServeWith(kind TransportKind, mode ExchangeMode, model *Model, opts ServeOptions) (*Server, error) {
	if kind == Processes {
		return nil, fmt.Errorf("meshgnn: Serve needs in-memory requests; run the engine inside RunOn for process ranks")
	}
	// Compile synchronously: the rank goroutines start after ServeWith
	// returns, and the caller may immediately resume training the model.
	core, err := gnn.NewInference(model)
	if err != nil {
		return nil, err
	}
	maxBatch := opts.MaxBatch
	if maxBatch < 1 {
		maxBatch = 1
	}
	window := opts.BatchWindow
	if window == 0 && maxBatch > 1 {
		window = defaultBatchWindow
	}
	if window < 0 {
		window = 0
	}
	nsess := opts.Sessions
	if nsess < 1 {
		nsess = 1
	}
	srv := &Server{
		sys:        s,
		ranks:      s.Ranks,
		in:         model.Config.InputNodeFeatures,
		out:        model.Config.OutputNodeFeatures,
		reqTimeout: opts.RequestTimeout,
		recvTime:   opts.recvTimeout(),
		maxBatch:   maxBatch,
		window:     window,
		core:       core,
	}
	for i := 0; i < nsess; i++ {
		ses := &serveSession{
			srv:      srv,
			id:       i,
			queue:    make(chan *serveReq, 2*maxBatch),
			dispDone: make(chan struct{}),
			batches:  make([]chan *serveBatch, s.Ranks),
			fatal:    make(chan struct{}),
			done:     make(chan struct{}),
		}
		for r := range ses.batches {
			ses.batches[r] = make(chan *serveBatch)
		}
		srv.sessions = append(srv.sessions, ses)
	}
	for _, ses := range srv.sessions {
		wrap := opts.WrapTransport
		if opts.WrapSession != nil {
			wrap = opts.WrapSession(ses.id)
		}
		go ses.dispatch()
		go ses.run(kind, mode, wrap)
	}
	return srv, nil
}

// run hosts the session's rank world until it exits, recording the
// result and latching the session fatal on failure.
func (ses *serveSession) run(kind TransportKind, mode ExchangeMode, wrap func(Transport) Transport) {
	err := ses.srv.sys.RunOnWith(kind, mode, wrap, func(r *Rank) error {
		// Any rank-side error — engine setup or a failed request — trips
		// the session's fatal latch the moment the rank exits, so pending
		// and future submitters stop waiting on a shrinking world.
		if err := ses.serveRank(r); err != nil {
			ses.noteFatal(err)
			return err
		}
		return nil
	})
	ses.mu.Lock()
	ses.runErr = err
	ses.mu.Unlock()
	if err != nil {
		ses.noteFatal(err)
	}
	close(ses.done)
}

// noteFatal records a rank-side failure and trips the session's fatal
// latch. The first recorded cause is what submitters blocked on the latch
// see; the full list feeds the terminal root-cause preference.
func (ses *serveSession) noteFatal(err error) {
	ses.mu.Lock()
	ses.fatalCause = append(ses.fatalCause, err)
	ses.mu.Unlock()
	ses.fatalOnce.Do(func() { close(ses.fatal) })
}

// alive reports whether the session's fatal latch is still open.
func (ses *serveSession) alive() bool {
	select {
	case <-ses.fatal:
		return false
	default:
		return true
	}
}

// dispatch is a session's admission loop: it pulls requests off the
// session queue, coalesces compatible neighbors into batches up to
// MaxBatch within the batching window, and fans each batch out to every
// rank in a single consistent order — the collective serialization the
// evaluation needs. It exits when the queue closes, dispatching whatever
// a pending window holds so Close always drains admitted requests.
func (ses *serveSession) dispatch() {
	srv := ses.srv
	defer close(ses.dispDone)
	defer func() {
		for _, ch := range ses.batches {
			close(ch)
		}
	}()
	open := true
	var held *serveReq // steps-incompatible request carried to the next batch
	for open || held != nil {
		var first *serveReq
		if held != nil {
			first, held = held, nil
		} else {
			req, ok := <-ses.queue
			if !ok {
				return
			}
			first = req
		}
		b := srv.getBatch(first)
		if srv.maxBatch > 1 {
			var timer *time.Timer
			var timerC <-chan time.Time
			if srv.window > 0 {
				timer = getTimer(srv.window)
				timerC = timer.C
			}
		fill:
			for len(b.members) < srv.maxBatch {
				if timerC != nil {
					select {
					case req, ok := <-ses.queue:
						if !ok {
							open = false
							break fill
						}
						if req.steps != b.steps {
							held = req
							break fill
						}
						b.addMember(req)
					case <-timerC:
						break fill
					}
				} else {
					select {
					case req, ok := <-ses.queue:
						if !ok {
							open = false
							break fill
						}
						if req.steps != b.steps {
							held = req
							break fill
						}
						b.addMember(req)
					default:
						break fill
					}
				}
			}
			if timer != nil {
				putTimer(timer)
			}
		}
		ses.deliver(b)
	}
}

// deliver fans a batch out to every rank of the session. The rank
// channels are unbuffered, so delivery blocks until the previous
// evaluation was picked up; the fatal latch unblocks a delivery to a dead
// world (ranks that already took the batch finish every member slot, and
// submitters of the rest unblock through the latch — the partial fan-out
// is harmless).
func (ses *serveSession) deliver(b *serveBatch) {
	for _, ch := range ses.batches {
		select {
		case ch <- b:
		case <-ses.fatal:
			return
		}
	}
}

// serveRank is one rank's serving loop: take a session of the compiled
// core — fresh arenas, staging and output buffers over the one compile —
// then evaluate dispatched batches until the channel closes or an
// evaluation fails. A failed evaluation is terminal for the session (its
// collective fabric is desynchronized mid-pattern), but it is caught per
// request: the error lands on every batch member and in the session's
// fatal state, never as a crashed process — and sibling sessions keep
// serving.
func (ses *serveSession) serveRank(r *Rank) error {
	eng := ses.srv.core.Session()
	id := r.ID()
	for b := range ses.batches[id] {
		if err := ses.serveBatchOn(r, eng, b); err != nil {
			return err
		}
	}
	return nil
}

// serveBatchOn evaluates one batch on one rank under panic recovery and
// the effective receive deadline, and always finishes every member's slot
// — no submitter ever waits on a rank that already failed. There are two
// evaluations, a prediction and a rollout, each over however many members
// coalesced: a lone request is a batch of one through the same stacked
// pass, and the bitwise contract (PredictBatch ≡ per-sample Predict) keeps
// results independent of how requests happened to coalesce.
func (ses *serveSession) serveBatchOn(r *Rank, eng *gnn.Inference, b *serveBatch) (err error) {
	srv := ses.srv
	id := r.ID()
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("meshgnn: serving rank %d (session %d): %w", id, ses.id, comm.PanicError(p))
		}
		for _, req := range b.members {
			req.finish(id, err)
		}
		if b.pending.Add(-1) == 0 {
			srv.putBatch(b)
		}
	}()
	r.Ctx.Comm.SetRecvTimeout(b.bound)
	if b.steps > 0 {
		trajs := eng.RolloutBatch(r.Ctx, b.ins[id], b.steps)
		for m, req := range b.members {
			req.trajs[id] = trajs[m]
		}
	} else {
		// The engine recycles its prediction buffers after one further
		// call; responses escape the server, so each gets its own copy.
		outs := eng.PredictBatch(r.Ctx, b.ins[id])
		for m, req := range b.members {
			req.outs[id] = outs[m].Clone()
		}
	}
	return nil
}

// Sessions returns the number of serving sessions behind the front door.
func (srv *Server) Sessions() int { return len(srv.sessions) }

// LiveSessions returns how many sessions are still serving — the
// server's current capacity in concurrent collective evaluations. It
// shrinks as sessions latch fatal; at zero every submission returns the
// terminal error.
func (srv *Server) LiveSessions() int {
	n := 0
	for _, ses := range srv.sessions {
		if ses.alive() {
			n++
		}
	}
	return n
}

// pickSession routes a request to the least-loaded live session (fewest
// admitted-but-unresolved requests, first session winning ties). nil
// means every session has failed.
func (srv *Server) pickSession() *serveSession {
	var best *serveSession
	var bestLoad int64
	for _, ses := range srv.sessions {
		if !ses.alive() {
			continue
		}
		load := ses.inflight.Load()
		if best == nil || load < bestLoad {
			best, bestLoad = ses, load
		}
	}
	return best
}

// Predict submits one node-feature snapshot per rank (inputs[r] is rank
// r's NumLocal×InputNodeFeatures matrix) and returns the per-rank
// predictions. The evaluation is collective within one session; the call
// blocks until every rank finished, bounded by ServeOptions.RequestTimeout
// if one was set.
func (srv *Server) Predict(inputs []*Matrix) ([]*Matrix, error) {
	return srv.PredictTimeout(inputs, srv.reqTimeout)
}

// PredictTimeout is Predict under an explicit deadline: if the collective
// evaluation has not completed within d the call returns an
// ErrTimeout-classified error. The deadline bounds the caller's wait
// only: the evaluation itself keeps running under the ranks' receive
// deadline, other members of the same batch are unaffected, and the
// abandoned result is discarded safely — a late-finishing rank can never
// write into a subsequent request's output. d <= 0 means no deadline.
func (srv *Server) PredictTimeout(inputs []*Matrix, d time.Duration) ([]*Matrix, error) {
	outs, _, err := srv.submit(inputs, 0, d)
	return outs, err
}

// Rollout submits one initial snapshot per rank and rolls the engine
// forward autoregressively, returning per-rank trajectories of steps+1
// states (including the initial one). The model's input and output widths
// must match.
func (srv *Server) Rollout(inputs []*Matrix, steps int) ([][]*Matrix, error) {
	return srv.RolloutTimeout(inputs, steps, srv.reqTimeout)
}

// RolloutTimeout is Rollout under an explicit deadline, with
// PredictTimeout's semantics.
func (srv *Server) RolloutTimeout(inputs []*Matrix, steps int, d time.Duration) ([][]*Matrix, error) {
	if steps < 1 {
		return nil, fmt.Errorf("meshgnn: rollout needs steps >= 1, got %d", steps)
	}
	_, trajs, err := srv.submit(inputs, steps, d)
	return trajs, err
}

// submit validates the snapshots, routes the request to the least-loaded
// live session, admits it to that session's dispatch queue, and waits for
// the collective evaluation under the deadline. A session that dies
// before admitting the request costs a re-route to a sibling, not a
// failure; a session that dies holding the request fails it with that
// session's root cause while siblings keep serving. steps > 0 requests a
// rollout of steps autoregressive applications; 0 a single prediction.
// The returned slices are fresh copies — the pooled request scaffolding
// never escapes.
func (srv *Server) submit(inputs []*Matrix, steps int, d time.Duration) ([]*tensor.Matrix, [][]*tensor.Matrix, error) {
	if len(inputs) != srv.ranks {
		return nil, nil, fmt.Errorf("meshgnn: %d snapshots for %d serving ranks", len(inputs), srv.ranks)
	}
	if steps > 0 && srv.in != srv.out {
		return nil, nil, fmt.Errorf("meshgnn: rollout needs matching widths, model maps %d -> %d", srv.in, srv.out)
	}
	for r, x := range inputs {
		if x == nil {
			return nil, nil, fmt.Errorf("meshgnn: rank %d snapshot is nil", r)
		}
		if want := srv.sys.Locals[r].NumLocal(); x.Rows != want || x.Cols != srv.in {
			return nil, nil, fmt.Errorf("meshgnn: rank %d snapshot is %dx%d, want %dx%d",
				r, x.Rows, x.Cols, want, srv.in)
		}
	}
	req := srv.getReq()
	copy(req.inputs, inputs)
	req.steps = steps

	var timer *time.Timer
	var timerC <-chan time.Time
	if d > 0 {
		timer = getTimer(d)
		timerC = timer.C
	}
	// Admission: pick a live session and enqueue. A session latching
	// fatal mid-enqueue re-routes the request to a sibling — each retry
	// excludes the session just observed dead, so the loop ends within
	// Sessions attempts (or when every session has failed).
	var ses *serveSession
	for {
		ses = srv.pickSession()
		if ses == nil {
			if timer != nil {
				putTimer(timer)
			}
			req.release(2)
			return nil, nil, srv.terminalError()
		}
		// Registering with subWG under the lock orders every admission
		// attempt against Close: a submitter that saw the server open
		// holds the session queue alive until its enqueue resolves.
		srv.mu.Lock()
		if srv.closed {
			err := srv.err
			srv.mu.Unlock()
			if timer != nil {
				putTimer(timer)
			}
			req.release(2)
			if err == nil {
				err = fmt.Errorf("meshgnn: server is closed")
			}
			return nil, nil, err
		}
		ses.subWG.Add(1)
		srv.mu.Unlock()
		ses.inflight.Add(1)

		enqueued, timedOut := false, false
		select {
		case ses.queue <- req:
			enqueued = true
		case <-ses.fatal:
		case <-timerC:
			timedOut = true
		}
		ses.subWG.Done()
		if enqueued {
			break
		}
		ses.inflight.Add(-1)
		if timedOut {
			if timer != nil {
				putTimer(timer)
			}
			// No rank ever saw this request; both references come back.
			req.release(2)
			return nil, nil, fmt.Errorf("meshgnn: request %w after %v (admission queue full)", comm.ErrTimeout, d)
		}
		// The chosen session died before admission; re-route.
	}

	completed := false
	select {
	case <-req.done:
		completed = true
	case <-timerC:
	case <-ses.fatal:
		// The latch may race an already-complete request; prefer its
		// answer when it has one.
		select {
		case <-req.done:
			completed = true
		default:
		}
	}
	ses.inflight.Add(-1)
	if timer != nil {
		putTimer(timer)
	}
	if !completed {
		// Walk away: the ranks still hold their reference and keep
		// writing into this (now orphaned) request; it is recycled only
		// after they finish, so no later request can observe the late
		// results. Prefer naming a dead session over a bare deadline.
		req.release(1)
		if !ses.alive() {
			return nil, nil, ses.terminalError()
		}
		return nil, nil, fmt.Errorf("meshgnn: request %w after %v", comm.ErrTimeout, d)
	}
	rerr := rootCause(req.errs)
	var outs []*tensor.Matrix
	var trajs [][]*tensor.Matrix
	if rerr == nil {
		if steps > 0 {
			trajs = append([][]*tensor.Matrix(nil), req.trajs...)
		} else {
			outs = append([]*tensor.Matrix(nil), req.outs...)
		}
	}
	req.release(1)
	if rerr != nil {
		return nil, nil, fmt.Errorf("meshgnn: request failed: %w", rerr)
	}
	return outs, trajs, nil
}

// terminalError names a failed session's state, preferring a root cause
// over secondary timeouts. Single-session servers report as the whole
// server failing (there is no capacity left); multi-session servers name
// the session, since siblings may still be serving.
func (ses *serveSession) terminalError() error {
	ses.mu.Lock()
	cause := rootCause(ses.fatalCause)
	ses.mu.Unlock()
	if cause == nil {
		cause = fmt.Errorf("meshgnn: serving ranks exited")
	}
	if len(ses.srv.sessions) == 1 {
		return fmt.Errorf("meshgnn: server failed: %w", cause)
	}
	return fmt.Errorf("meshgnn: serving session %d failed: %w", ses.id, cause)
}

// terminalError names the server's fatal state — every session has
// failed — preferring a root cause over secondary timeouts.
func (srv *Server) terminalError() error {
	var causes []error
	for _, ses := range srv.sessions {
		ses.mu.Lock()
		causes = append(causes, ses.fatalCause...)
		ses.mu.Unlock()
	}
	cause := rootCause(causes)
	if cause == nil {
		cause = fmt.Errorf("meshgnn: serving ranks exited")
	}
	return fmt.Errorf("meshgnn: server failed: %w", cause)
}

// rootCause picks the most informative error from a set of concurrent
// rank failures: the first (by order) error that is not a secondary
// ErrTimeout or comm.ErrPeerClosed — when one rank dies, its peers time
// out waiting on it or, in process, are released by its closed endpoint,
// and those errors point at the symptom, not the cause. All-secondary (or
// all-nil) sets fall back to the first non-nil entry.
func rootCause(errs []error) error {
	var first error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if first == nil {
			first = err
		}
		if !errors.Is(err, comm.ErrTimeout) && !errors.Is(err, comm.ErrPeerClosed) {
			return err
		}
	}
	return first
}

// Close shuts every session's serving ranks down and returns their
// collective error (nil for a clean shutdown). Admitted requests are
// drained first — a request sitting in a session queue or a pending
// batching window is dispatched and its ranks finish or fail it before
// they exit, so its submitter always gets an answer. Sessions drain
// independently and deterministically; Close is idempotent and safe to
// race with submitters: it returns the same terminal error to every
// caller.
func (srv *Server) Close() error {
	srv.mu.Lock()
	srv.closed = true
	srv.mu.Unlock()
	srv.closeOnce.Do(func() {
		// Every admission attempt that saw the server open resolves
		// before the queues close, so close can never race an enqueue.
		for _, ses := range srv.sessions {
			ses.subWG.Wait()
			close(ses.queue)
		}
	})
	for _, ses := range srv.sessions {
		<-ses.dispDone
		<-ses.done
	}

	srv.mu.Lock()
	defer srv.mu.Unlock()
	if srv.err == nil {
		// Prefer the recorded root cause over RunOn's rank-ordered first
		// error: when one rank dies, lower-numbered peers usually exit
		// first with secondary timeouts.
		var causes []error
		var runErr error
		for _, ses := range srv.sessions {
			ses.mu.Lock()
			causes = append(causes, ses.fatalCause...)
			if runErr == nil && ses.runErr != nil {
				runErr = ses.runErr
			}
			ses.mu.Unlock()
		}
		if cause := rootCause(causes); cause != nil {
			srv.err = fmt.Errorf("meshgnn: server failed: %w", cause)
		} else {
			srv.err = runErr
		}
	}
	return srv.err
}

// Predict is the one-shot convenience: it spins up an in-process serving
// fabric, evaluates the per-rank snapshots once, and tears the fabric
// down. For request streams, keep a Server from Serve instead — it reuses
// the bound engines across requests.
func (s *System) Predict(mode ExchangeMode, model *Model, inputs []*Matrix) ([]*Matrix, error) {
	srv, err := s.Serve(InProcess, mode, model)
	if err != nil {
		return nil, err
	}
	outs, err := srv.Predict(inputs)
	if cerr := srv.Close(); err == nil && cerr != nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	return outs, nil
}
