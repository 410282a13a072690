package comm

import (
	"fmt"
	"time"
)

// Transport is the point-to-point substrate a Comm builds its collectives
// on. Two implementations ship with the library:
//
//   - the in-process channel fabric (World), where every rank is a
//     goroutine and messages travel through buffered channels; and
//   - the socket fabric (SocketTransport), where ranks connect over
//     Unix-domain or TCP sockets with length-prefixed binary frames and
//     may live in separate OS processes.
//
// Because every collective (Barrier, AllReduce*, AllToAll) is
// implemented in Comm purely in terms of Send/Recv, the deterministic
// rank-ordered reduction semantics — and hence the paper's bitwise
// consistency property — are transport-independent. The cross-transport
// harness (cmd/consistency -transport=both) asserts exactly that.
//
// Ordering contract: messages between a fixed (src,dst) pair are
// delivered in send order; messages from different sources may interleave
// arbitrarily. Tags exist to fail loudly on mispaired patterns, not to
// reorder delivery.
//
// Ownership contract: the slice returned by Recv/RecvInts (or by a
// receive Request's Wait) is owned by the transport and is only
// guaranteed valid until the next receive from the same source completes.
// Callers that retain payloads must copy them (all collectives in this
// package consume payloads immediately). Send may read from data only
// until it returns; callers may reuse the buffer afterwards.
//
// Nonblocking contract: IsendF64/IrecvF64 return pooled Request handles
// (see Request) so halo exchanges can be split into Start/Finish halves
// that overlap communication with compute. Completion order across
// different sources is unconstrained; within one source, receives
// complete in send order (per-pair FIFO).
type Transport interface {
	// Rank returns this endpoint's rank index.
	Rank() int
	// Size returns the world size R.
	Size() int
	// Send transmits data to rank dst under tag. It must not retain data
	// after returning.
	Send(dst int, tag Tag, data []float64)
	// Recv blocks until the next message from src arrives and returns its
	// payload, panicking on a tag mismatch.
	Recv(src int, tag Tag) []float64
	// SendInts and RecvInts are the int64-payload variants used by setup
	// exchanges of global node IDs.
	SendInts(dst int, tag Tag, data []int64)
	RecvInts(src int, tag Tag) []int64
	// IsendF64 begins a nonblocking send of a float64 payload and returns
	// a pooled Request handle. The shipped transports complete sends
	// eagerly, so data may be reused as soon as IsendF64 returns; see the
	// Request ownership contract for the general rule.
	IsendF64(dst int, tag Tag, data []float64) *Request
	// IrecvF64 posts a nonblocking receive of the next float64 payload
	// from src. The payload becomes available through the returned
	// Request's Wait; at most one receive may be outstanding per source.
	IrecvF64(src int, tag Tag) *Request
	// SetRecvTimeout bounds every subsequent blocking receive — Recv,
	// RecvInts, and a receive Request's blocking Wait — on this endpoint:
	// a wait that exceeds d panics with an ErrTimeout-classified error
	// instead of blocking forever on a dead or desynchronized peer.
	// d <= 0 restores unbounded waits (the default). The bound is
	// realized with a reused per-endpoint timer, so steady-state receives
	// stay allocation-free with a deadline armed.
	SetRecvTimeout(d time.Duration)
	// Kind reports which fabric this transport realizes.
	Kind() TransportKind
	// Close releases the transport's resources (connections, listeners)
	// and marks the rank down: once what it sent is received, its peers'
	// receives from it fail with ErrPeerDown on every fabric.
	Close() error
}

// timedRecv receives from ch with an optional bound d (d <= 0 blocks
// unboundedly). The timer behind the bound is owned by the caller through
// tp and reused across calls — allocated lazily on the first bounded
// receive, then armed and disarmed with Reset/Stop — so a steady-state
// receive loop with a deadline configured performs no allocation.
// Endpoints are single-goroutine (see Transport), which makes the
// Reset/Stop/drain sequence race-free.
func timedRecv[T any](ch <-chan T, tp **time.Timer, d time.Duration) (v T, ok bool, timedOut bool) {
	if d <= 0 {
		v, ok = <-ch
		return v, ok, false
	}
	t := *tp
	if t == nil {
		t = time.NewTimer(d)
		*tp = t
	} else {
		t.Reset(d)
	}
	select {
	case v, ok = <-ch:
		if !t.Stop() {
			<-t.C // drain a concurrent expiry so the next Reset is clean
		}
		return v, ok, false
	case <-t.C:
		return v, false, true
	}
}

// TransportKind names the available rank fabrics.
type TransportKind int

const (
	// InProcess runs every rank as a goroutine over the channel fabric —
	// the default, used by all single-binary experiments.
	InProcess TransportKind = iota
	// Sockets runs every rank as a goroutine but connects them through
	// real Unix-domain sockets: the socket wire protocol under in-process
	// scheduling, used by the consistency and allocation test harnesses.
	Sockets
	// Processes runs every rank as its own OS process connected through
	// sockets (the -procs launcher mode).
	Processes
)

func (k TransportKind) String() string {
	switch k {
	case InProcess:
		return "inproc"
	case Sockets:
		return "sockets"
	case Processes:
		return "procs"
	}
	return fmt.Sprintf("TransportKind(%d)", int(k))
}
