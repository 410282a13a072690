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
// Every operation is instrumented with message and byte counters
// (Stats), which the measured scaling tier and the repository benchmark
// read.
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
	TagHaloForward
	TagHaloAdjoint
	TagSetup
	TagUser Tag = 100 // first tag available to applications
)

// Stats accumulates per-rank communication counters.
type Stats struct {
	MessagesSent  int64
	FloatsSent    int64 // float64 payload elements sent point-to-point
	AllReduces    int64
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
	// boxes[dst][src] carries messages from src to dst, buffered so that
	// all ranks can post their sends before any receives complete; rank
	// dst's endpoint receives from row boxes[dst].
	boxes [][]inbox
	// down[src] closes every inbox src sends into, and closed[src], once,
	// when src's endpoint closes (worldTransport.Close).
	down   []sync.Once
	closed []chan struct{}
}

// NewWorld creates the fabric for size ranks.
func NewWorld(size int) *World {
	if size < 1 {
		panic(fmt.Sprintf("comm: world size must be >= 1, got %d", size))
	}
	w := &World{size: size, boxes: make([][]inbox, size), down: make([]sync.Once, size),
		closed: make([]chan struct{}, size)}
	for dst := range w.boxes {
		w.closed[dst] = make(chan struct{})
		w.boxes[dst] = newInboxes(size, w.closed[dst])
	}
	return w
}

// worldTransport is one rank's endpoint onto the channel fabric: the
// shared receive half over its row of inboxes, and a send that posts a
// pooled copy straight into the peer's inbox.
type worldTransport struct {
	receiver
	w *World
}

// Transport returns the in-process transport endpoint for the given rank.
func (w *World) Transport(rank int) Transport {
	if rank < 0 || rank >= w.size {
		panic(fmt.Sprintf("comm: rank %d out of range [0,%d)", rank, w.size))
	}
	return &worldTransport{receiver: receiver{rank: rank, size: w.size, boxes: w.boxes[rank]}, w: w}
}

func (t *worldTransport) Kind() TransportKind { return InProcess }

// Close marks the rank down: it closes every inbox the rank sends into,
// so a peer waiting on one — or arriving later — receives what the rank
// sent before it closed and then fails with ErrPeerClosed, as it does on
// the socket fabric when the rank's stream ends, instead of waiting out
// its receive deadline. A peer sending to the rank afterwards fails with
// ErrPeerClosed too, instead of blocking once the rank's inbox is full. The
// rank runners close an endpoint when its rank returns or panics. Close is
// idempotent; the endpoint must not send after it.
func (t *worldTransport) Close() error {
	t.w.down[t.rank].Do(func() {
		close(t.w.closed[t.rank])
		for dst := range t.w.boxes {
			t.w.boxes[dst][t.rank].close(ErrPeerClosed)
		}
	})
	return nil
}

// Send posts a pooled copy of data into dst's inbox, so steady-state
// traffic allocates nothing. A send to a closed rank panics with
// ErrPeerClosed.
func (t *worldTransport) Send(dst int, tag Tag, data []float64) {
	if !t.w.boxes[dst][t.rank].postFloats(tag, data) {
		t.peerClosed(dst)
	}
}

func (t *worldTransport) SendInts(dst int, tag Tag, data []int64) {
	if !t.w.boxes[dst][t.rank].postInts(tag, data) {
		t.peerClosed(dst)
	}
}

func (t *worldTransport) peerClosed(dst int) {
	panic(fmt.Errorf("comm: rank %d send to %d: %w", t.rank, dst, ErrPeerClosed))
}

// IsendF64 is the nonblocking send: the pooled copy decouples the caller's
// buffer at once, so the returned request is born complete.
func (t *worldTransport) IsendF64(dst int, tag Tag, data []float64) *Request {
	t.Send(dst, tag, data)
	return t.reqs.get(nil, dst, tag)
}

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
