// Package comm provides an SPMD communication runtime standing in for
// MPI + collective libraries (NCCL/RCCL) in the paper's distributed GNN
// workflow.
//
// Ranks talk through a pluggable Transport: the default in-process
// channel fabric (each rank a goroutine), or a socket fabric where ranks
// exchange length-prefixed binary frames over Unix-domain/TCP sockets and
// may run as separate OS processes. Collectives are built on top of
// point-to-point with a deterministic, rank-ordered reduction: the same
// inputs always produce bitwise-identical results on every transport,
// which is what makes the paper's consistency property (partitioned ==
// unpartitioned arithmetic) testable to machine precision — including
// across the process boundary.
//
// Every operation is instrumented with message and byte counters. The
// counters feed the performance model that projects the measured kernel
// rates onto the Frontier interconnect when regenerating the paper's
// scaling figures.
package comm

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Tag labels a point-to-point message so mismatched communication patterns
// fail loudly instead of silently mispairing buffers.
type Tag int

// Reserved tags for the collective algorithms and halo exchange.
const (
	TagReduce Tag = iota + 1
	TagAllToAll
	TagHaloForward
	TagHaloAdjoint
	TagSetup
	TagUser Tag = 100 // first tag available to applications
)

type message struct {
	tag  Tag
	data []float64
	ints []int64
}

// Stats accumulates per-rank communication counters.
type Stats struct {
	MessagesSent  int64
	FloatsSent    int64 // float64 payload elements sent point-to-point
	AllReduces    int64
	AllToAlls     int64
	HaloExchanges int64
	// HaloSeconds accumulates wall time spent inside halo exchanges
	// (pack, post, wait, unpack), for time-breakdown reporting.
	HaloSeconds float64
	// HaloExposedSeconds is the subset of HaloSeconds spent blocked in
	// Finish waiting for messages that had not yet arrived — the
	// communication time the rank could not hide behind compute. With the
	// synchronous exchange (Start immediately followed by Finish) this is
	// essentially the whole transfer time; the overlapped pipeline shrinks
	// it toward zero as interior compute covers the transfer.
	HaloExposedSeconds float64
}

// BytesSent returns the total point-to-point payload volume in bytes.
func (s *Stats) BytesSent() int64 { return 8 * s.FloatsSent }

// World owns the channel fabric connecting size in-process ranks. It is
// the InProcess implementation of Transport (one endpoint per rank).
type World struct {
	size int
	// mail[dst][src] carries messages from src to dst. Buffered so that
	// all ranks can post their sends before any receives complete.
	mail [][]chan message
	// pools[dst][src] recycles payload buffers flowing src→dst: the
	// sender draws its copy from the pair's pool and the receiver returns
	// it once the ownership window closes (its next receive from src), so
	// steady-state traffic on the channel fabric allocates nothing — the
	// same discipline the socket fabric's per-peer free lists implement.
	pools [][]bufPool
	// down[src] closes every mailbox src sends into, once, when src's
	// endpoint closes (worldTransport.Close).
	down []sync.Once
}

// mailboxDepth bounds the number of in-flight messages per (src,dst) pair.
// Halo exchanges post at most a handful of messages per pair per layer, so
// a small constant suffices; it is generous to keep the collectives from
// serializing. The socket fabric uses the same bound for its per-peer
// inbox so both transports backpressure identically.
const mailboxDepth = 128

// NewWorld creates the fabric for size ranks.
func NewWorld(size int) *World {
	if size < 1 {
		panic(fmt.Sprintf("comm: world size must be >= 1, got %d", size))
	}
	w := &World{size: size, mail: make([][]chan message, size), pools: make([][]bufPool, size),
		down: make([]sync.Once, size)}
	for dst := range w.mail {
		w.mail[dst] = make([]chan message, size)
		w.pools[dst] = make([]bufPool, size)
		for src := range w.mail[dst] {
			w.mail[dst][src] = make(chan message, mailboxDepth)
		}
	}
	return w
}

// worldTransport is one rank's endpoint onto the channel fabric. lastF
// and lastI track, per source, the payload most recently handed to the
// caller; it is returned to the pair's pool when the next receive from
// that source runs, realizing the Transport ownership contract.
type worldTransport struct {
	w     *World
	rank  int
	lastF [][]float64 // indexed by src
	lastI [][]int64
	reqs  requestPool

	// recvTimeout bounds blocking receives (SetRecvTimeout); the timer
	// realizing it is reused across waits so a bounded steady state stays
	// allocation-free.
	recvTimeout time.Duration
	timer       *time.Timer
}

// Transport returns the in-process transport endpoint for the given rank.
func (w *World) Transport(rank int) Transport {
	if rank < 0 || rank >= w.size {
		panic(fmt.Sprintf("comm: rank %d out of range [0,%d)", rank, w.size))
	}
	return &worldTransport{
		w:     w,
		rank:  rank,
		lastF: make([][]float64, w.size),
		lastI: make([][]int64, w.size),
	}
}

func (t *worldTransport) Rank() int                      { return t.rank }
func (t *worldTransport) Size() int                      { return t.w.size }
func (t *worldTransport) Kind() TransportKind            { return InProcess }
func (t *worldTransport) SetRecvTimeout(d time.Duration) { t.recvTimeout = d }

// Close marks the rank down: it closes every mailbox the rank sends into,
// so a peer waiting on one — or arriving later — receives what the rank
// sent before it closed and then fails with ErrPeerDown, the error the
// socket fabric reports for a closed stream, instead of waiting out its
// receive deadline. The rank runners close an endpoint when its rank
// returns or panics. Close is idempotent; the endpoint must not send after
// it.
func (t *worldTransport) Close() error {
	t.w.down[t.rank].Do(func() {
		for dst := range t.w.mail {
			close(t.w.mail[dst][t.rank])
		}
	})
	return nil
}

// peerDown is the classified failure of a receive from a closed rank
// whose mailbox is drained.
func (t *worldTransport) peerDown(src int) error {
	return fmt.Errorf("comm: rank %d recv from %d: %w", t.rank, src, ErrPeerClosed)
}

// recvMsg pulls the next message from src under the endpoint's receive
// deadline, panicking with a classified error on expiry or once a closed
// src's mailbox is drained.
func (t *worldTransport) recvMsg(src int) message {
	m, ok, timedOut := timedRecv(t.w.mail[t.rank][src], &t.timer, t.recvTimeout)
	if timedOut {
		panic(fmt.Errorf("comm: rank %d recv from %d: %w after %v",
			t.rank, src, ErrTimeout, t.recvTimeout))
	}
	if !ok {
		panic(t.peerDown(src))
	}
	return m
}

// Send transmits a copy of data (the channel hands the same backing array
// to the receiver, so the copy realizes the non-retention contract). The
// copy comes from the pair's recycling pool, so steady-state traffic
// allocates nothing. Send never blocks as long as fewer than mailboxDepth
// messages are in flight between the pair.
func (t *worldTransport) Send(dst int, tag Tag, data []float64) {
	cp := t.w.pools[dst][t.rank].getFloats(len(data))
	copy(cp, data)
	t.w.mail[dst][t.rank] <- message{tag: tag, data: cp}
}

// recycleF closes the ownership window of the previous float payload from
// src, returning it to the pair's pool for the sender to reuse.
func (t *worldTransport) recycleF(src int) {
	if b := t.lastF[src]; b != nil {
		t.lastF[src] = nil
		t.w.pools[t.rank][src].putFloats(b)
	}
}

func (t *worldTransport) recycleI(src int) {
	if b := t.lastI[src]; b != nil {
		t.lastI[src] = nil
		t.w.pools[t.rank][src].putInts(b)
	}
}

func (t *worldTransport) Recv(src int, tag Tag) []float64 {
	t.recycleF(src)
	m := t.recvMsg(src)
	if m.tag != tag {
		panic(fmt.Sprintf("comm: rank %d expected tag %d from %d, got %d",
			t.rank, tag, src, m.tag))
	}
	t.lastF[src] = m.data
	return m.data
}

func (t *worldTransport) SendInts(dst int, tag Tag, data []int64) {
	cp := t.w.pools[dst][t.rank].getInts(len(data))
	copy(cp, data)
	t.w.mail[dst][t.rank] <- message{tag: tag, ints: cp}
}

func (t *worldTransport) RecvInts(src int, tag Tag) []int64 {
	t.recycleI(src)
	m := t.recvMsg(src)
	if m.tag != tag {
		panic(fmt.Sprintf("comm: rank %d expected int tag %d from %d, got %d",
			t.rank, tag, src, m.tag))
	}
	t.lastI[src] = m.ints
	return m.ints
}

// IsendF64 is the nonblocking send: the channel fabric sends eagerly (the
// pooled copy decouples the caller's buffer immediately), so the returned
// request is born complete.
func (t *worldTransport) IsendF64(dst int, tag Tag, data []float64) *Request {
	t.Send(dst, tag, data)
	return t.reqs.get(t, false, dst, tag)
}

// IrecvF64 posts a nonblocking receive; the message is pulled from the
// pair's channel on Wait/Test.
func (t *worldTransport) IrecvF64(src int, tag Tag) *Request {
	return t.reqs.get(t, true, src, tag)
}

// progress implements reqOwner: it pulls the next message from the
// request's source, blocking (under the endpoint's receive deadline) or
// polling.
func (t *worldTransport) progress(r *Request, block bool) bool {
	if !r.recv {
		return true
	}
	var m message
	if block {
		m = t.recvMsg(r.peer)
	} else {
		ok := true
		select {
		case m, ok = <-t.w.mail[t.rank][r.peer]:
		default:
			return false
		}
		if !ok {
			panic(t.peerDown(r.peer))
		}
	}
	t.completeRecv(r, m)
	return true
}

// progressTimeout is the non-panicking bounded wait behind
// Request.WaitTimeout.
func (t *worldTransport) progressTimeout(r *Request, d time.Duration) (bool, error) {
	if !r.recv || r.done {
		return true, nil
	}
	m, ok, timedOut := timedRecv(t.w.mail[t.rank][r.peer], &t.timer, d)
	if timedOut {
		return false, nil
	}
	if !ok {
		return false, t.peerDown(r.peer)
	}
	t.completeRecv(r, m)
	return true, nil
}

// completeRecv validates the pulled message against the request and hands
// its payload over under the ownership contract.
func (t *worldTransport) completeRecv(r *Request, m message) {
	if m.tag != r.tag || m.data == nil && m.ints != nil {
		panic(fmt.Sprintf("comm: rank %d expected tag %d (floats) from %d, got tag %d",
			t.rank, r.tag, r.peer, m.tag))
	}
	// The previous payload's ownership window closes as this receive
	// completes.
	t.recycleF(r.peer)
	t.lastF[r.peer] = m.data
	r.data = m.data
}

func (t *worldTransport) releaseRequest(r *Request) { t.reqs.put(r) }

// Comm is one rank's handle onto the world: a Transport endpoint plus the
// collective algorithms and traffic counters. A Comm must only be used
// from the goroutine running that rank.
type Comm struct {
	t     Transport
	rank  int
	size  int
	Stats Stats
	// scratch is the accumulator of the reducing collectives on a rank that
	// cannot accumulate in place (see reduce), grown once to the largest
	// buffer reduced.
	scratch []float64
}

// NewComm wraps a transport endpoint in a rank handle.
func NewComm(t Transport) *Comm {
	return &Comm{t: t, rank: t.Rank(), size: t.Size()}
}

// Comm returns the handle for the given rank of the in-process fabric.
func (w *World) Comm(rank int) *Comm {
	return NewComm(w.Transport(rank))
}

// Rank returns this rank's index.
func (c *Comm) Rank() int { return c.rank }

// Size returns the world size R.
func (c *Comm) Size() int { return c.size }

// Transport exposes the underlying fabric endpoint.
func (c *Comm) Transport() Transport { return c.t }

// TransportKind reports which fabric carries this rank's traffic.
func (c *Comm) TransportKind() TransportKind { return c.t.Kind() }

// Close releases the underlying transport.
func (c *Comm) Close() error { return c.t.Close() }

// SetRecvTimeout bounds every subsequent blocking wait on this rank's
// endpoint — Recv, RecvInts, and receive Requests' Wait (and hence every
// collective and halo exchange built on them): a wait exceeding d panics
// with an ErrTimeout-classified error instead of hanging on a dead or
// desynchronized peer. d <= 0 restores unbounded waits. The serving
// facade arms this before evaluating each request so a stuck collective
// unwinds within the request's deadline.
func (c *Comm) SetRecvTimeout(d time.Duration) { c.t.SetRecvTimeout(d) }

// Send transmits data to rank dst with the given tag. The buffer may be
// reused by the caller once Send returns.
func (c *Comm) Send(dst int, tag Tag, data []float64) {
	c.t.Send(dst, tag, data)
	c.Stats.MessagesSent++
	c.Stats.FloatsSent += int64(len(data))
}

// Recv blocks until a message from src arrives and returns its payload.
// The tag must match the sender's tag. The returned slice is valid until
// the next Recv from the same source (see Transport's ownership contract).
func (c *Comm) Recv(src int, tag Tag) []float64 {
	return c.t.Recv(src, tag)
}

// Isend begins a nonblocking send (Transport.IsendF64) and returns its
// pooled Request. Traffic counters are charged at post time.
func (c *Comm) Isend(dst int, tag Tag, data []float64) *Request {
	r := c.t.IsendF64(dst, tag, data)
	c.Stats.MessagesSent++
	c.Stats.FloatsSent += int64(len(data))
	return r
}

// Irecv posts a nonblocking receive (Transport.IrecvF64); the payload is
// collected through the Request's Wait under the transport ownership
// contract.
func (c *Comm) Irecv(src int, tag Tag) *Request {
	return c.t.IrecvF64(src, tag)
}

// SendInts transmits an int64 payload (used by setup exchanges of global
// node IDs).
func (c *Comm) SendInts(dst int, tag Tag, data []int64) {
	c.t.SendInts(dst, tag, data)
	c.Stats.MessagesSent++
	c.Stats.FloatsSent += int64(len(data)) // same 8-byte accounting
}

// RecvInts receives an int64 payload from src.
func (c *Comm) RecvInts(src int, tag Tag) []int64 {
	return c.t.RecvInts(src, tag)
}

// folds reports whether this rank combines the contributions of a
// collective itself. At two ranks both do: a direct swap costs the same two
// messages as gathering on rank 0 and releasing, with one of them on the
// critical path instead of both in sequence. Beyond two, every-rank-folds
// would need R(R-1) messages against the gather's 2(R-1) and measures
// slower on both fabrics, so only rank 0 folds and the others take its
// result.
func (c *Comm) folds() bool { return c.rank == 0 || c.size == 2 }

// exchange is the one wire pattern under Barrier, AllReduceSum and
// AllReduceMax. A folding rank (see folds) visits all Size()
// contributions in ascending source order — its own, local, at position
// Rank() without touching the fabric — handing each to fold, which must
// leave the collective's result in out; every folding rank thus combines
// the same values in the same order, the order a reduction built on this
// owes its determinism to. Each payload is folded before the next receive,
// inside the transport's ownership window, and a contribution whose length
// differs from local's panics. The other ranks send local to rank 0 and
// copy its result into out.
func (c *Comm) exchange(op string, tag Tag, local, out []float64, fold func(src int, contrib []float64)) {
	if !c.folds() {
		c.Send(0, tag, local)
		copy(out, c.Recv(0, tag))
		return
	}
	if c.size == 2 {
		c.Send(1-c.rank, tag, local)
	}
	for src := 0; src < c.size; src++ {
		contrib := local
		if src != c.rank {
			contrib = c.Recv(src, tag)
			if len(contrib) != len(local) {
				panic(fmt.Sprintf("comm: %s length mismatch %d vs %d", op, len(contrib), len(local)))
			}
		}
		fold(src, contrib)
	}
	if c.size > 2 {
		for dst := 1; dst < c.size; dst++ {
			c.Send(dst, tag, out)
		}
	}
}

// reduce combines every rank's buf as c0 ∘ c1 ∘ … ∘ c(R-1) and leaves the
// result in buf on every rank. Rank 0's buffer is the first term, so it
// accumulates in place; a folding rank further along needs its buffer
// intact until its turn and accumulates in the grow-once scratch.
func (c *Comm) reduce(op string, buf []float64, combine func(acc, contrib []float64)) {
	c.Stats.AllReduces++
	if c.size == 1 {
		return
	}
	own := c.folds() && c.rank != 0
	acc := buf
	if own {
		if cap(c.scratch) < len(buf) {
			c.scratch = make([]float64, len(buf))
		}
		acc = c.scratch[:len(buf)]
	}
	c.exchange(op, TagReduce, buf, acc, func(src int, contrib []float64) {
		switch {
		case src != 0:
			combine(acc, contrib)
		case own:
			copy(acc, contrib)
		}
	})
	if own {
		copy(buf, acc)
	}
}

// Barrier blocks until every rank has entered it: a rank leaves once it
// has heard, directly or through rank 0, from every other rank.
func (c *Comm) Barrier() {
	c.exchange("Barrier", TagSetup, nil, nil, func(int, []float64) {})
}

// AllReduceSum sums buf element-wise across all ranks; on return every
// rank holds the identical total. The contributions are accumulated in
// ascending rank order, c0 + c1 + … + c(R-1), wherever the accumulation
// runs (see folds), making the result deterministic and independent of
// goroutine scheduling, of the rank count's wire pattern, and of the
// transport carrying the messages.
func (c *Comm) AllReduceSum(buf []float64) {
	c.reduce("AllReduceSum", buf, func(acc, contrib []float64) {
		for i, v := range contrib {
			acc[i] += v
		}
	})
}

// AllReduceMax computes the element-wise maximum across ranks.
func (c *Comm) AllReduceMax(buf []float64) {
	c.reduce("AllReduceMax", buf, func(acc, contrib []float64) {
		for i, v := range contrib {
			if v > acc[i] {
				acc[i] = v
			}
		}
	})
}

// AllToAll sends send[j] to rank j and returns recv where recv[i] is the
// buffer received from rank i. nil entries are treated as empty: no
// message is exchanged for a nil pair (mirroring the collective-library
// behaviour the paper exploits for its Neighbor-AllToAll mode, where
// torch.empty(0) buffers skip communication entirely). Received buffers
// follow the transport ownership contract: each recv[i] is valid until
// the next Recv from rank i (the next AllToAll at the earliest).
//
// The halo Exchanger no longer calls this collective: its Start/Finish
// halves post the identical A2A / N-A2A wire pattern (same tag, same
// per-pair message order, same AllToAlls counter) through the
// nonblocking request primitives so the wait can overlap with compute.
// This blocking spelling remains the collective API; the cross-transport
// and overlap consistency harnesses pin the two spellings to the same
// wire behavior.
func (c *Comm) AllToAll(send [][]float64) [][]float64 {
	if len(send) != c.Size() {
		panic(fmt.Sprintf("comm: AllToAll needs %d buffers, got %d", c.Size(), len(send)))
	}
	c.Stats.AllToAlls++
	recv := make([][]float64, c.Size())
	// Self-exchange without touching the fabric.
	if send[c.rank] != nil {
		cp := make([]float64, len(send[c.rank]))
		copy(cp, send[c.rank])
		recv[c.rank] = cp
	}
	for dst := 0; dst < c.Size(); dst++ {
		if dst == c.rank || send[dst] == nil {
			continue
		}
		c.Send(dst, TagAllToAll, send[dst])
	}
	for src := 0; src < c.Size(); src++ {
		if src == c.rank || send[src] == nil {
			// Symmetric pattern assumption: pair (r,s) exchanges iff
			// both directions are non-nil. The halo plans constructed
			// by the graph package are symmetric by construction.
			continue
		}
		recv[src] = c.Recv(src, TagAllToAll)
	}
	return recv
}

// Run executes fn on every rank of a fresh size-rank in-process world and
// blocks until all ranks finish, returning the first error by rank order.
func Run(size int, fn func(c *Comm) error) error {
	_, err := RunCollect(size, func(c *Comm) (struct{}, error) {
		return struct{}{}, fn(c)
	})
	return err
}

// RunCollect is Run for functions that return a per-rank value; the
// results are returned indexed by rank.
func RunCollect[T any](size int, fn func(c *Comm) (T, error)) ([]T, error) {
	w := NewWorld(size)
	return runRanks(size, func(rank int) (Transport, error) {
		return w.Transport(rank), nil
	}, fn)
}

// RunWith is Run with a per-rank transport wrapper applied to every
// endpoint before the rank function starts — the injection point for
// FaultTransport (and any future interposer: tracing, traffic shaping).
// wrap receives each rank's endpoint and returns the transport the rank
// actually uses; a nil wrap (or identity return) degenerates to Run.
func RunWith(size int, wrap func(Transport) Transport, fn func(c *Comm) error) error {
	w := NewWorld(size)
	_, err := runRanks(size, func(rank int) (Transport, error) {
		return wrapTransport(w.Transport(rank), wrap), nil
	}, func(c *Comm) (struct{}, error) {
		return struct{}{}, fn(c)
	})
	return err
}

func wrapTransport(t Transport, wrap func(Transport) Transport) Transport {
	if wrap == nil {
		return t
	}
	if wt := wrap(t); wt != nil {
		return wt
	}
	return t
}

// runRanks spawns one goroutine per rank, each with its own Comm built
// from the transport factory, and gathers per-rank results. It is the
// shared engine behind RunCollect (channel fabric) and RunSocketsCollect
// (socket fabric).
func runRanks[T any](size int, transport func(rank int) (Transport, error), fn func(c *Comm) (T, error)) ([]T, error) {
	results := make([]T, size)
	errs := make([]error, size)
	var wg sync.WaitGroup
	wg.Add(size)
	for r := 0; r < size; r++ {
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					// Preserve classified comm errors (ErrPeerDown,
					// ErrTimeout, ErrCorruptFrame) through the recovery so
					// callers can errors.Is on the run's result.
					errs[rank] = fmt.Errorf("rank %d panicked: %w", rank, PanicError(p))
				}
			}()
			t, err := transport(rank)
			if err != nil {
				errs[rank] = err
				return
			}
			c := NewComm(t)
			defer c.Close()
			v, err := fn(c)
			results[rank] = v
			errs[rank] = err
		}(r)
	}
	wg.Wait()
	// The first failing rank's error, skipping those that only report a
	// closed peer (ErrPeerClosed) where another rank's error explains them.
	first := -1
	for r, err := range errs {
		if err == nil {
			continue
		}
		if first < 0 {
			first = r
		}
		if !errors.Is(err, ErrPeerClosed) {
			return results, fmt.Errorf("rank %d: %w", r, err)
		}
	}
	if first >= 0 {
		return results, fmt.Errorf("rank %d: %w", first, errs[first])
	}
	return results, nil
}
