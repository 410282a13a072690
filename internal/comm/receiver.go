package comm

import (
	"fmt"
	"sync"
	"time"
)

// message is one payload in flight to a rank, as its inbox holds it: kind
// is frameFloats (f set) or frameInts (i set), whichever fabric carried it.
type message struct {
	kind byte
	tag  Tag
	f    []float64
	i    []int64
}

// mailboxDepth bounds the number of in-flight messages per (src,dst) pair.
// Halo exchanges post at most a handful of messages per pair per layer, so
// a small constant suffices; it is generous to keep the collectives from
// serializing. It is the depth of every inbox, so both fabrics
// backpressure identically.
const mailboxDepth = 128

// freeList recycles payload slices between the producer of an inbox (the
// sending rank on the channel fabric, a peer's reader goroutine on the
// socket fabric) and the receiving rank. It hands out the best-fitting
// buffer — the smallest with sufficient capacity — so mixed message sizes
// flowing through the same pair (halo payloads interleaved with loss
// scalars and gradient chunks) each settle on their own reused buffer
// instead of stealing across size classes and thrashing the allocator.
type freeList[T any] struct {
	mu   sync.Mutex
	bufs [][]T
}

func (l *freeList[T]) get(n int) []T {
	l.mu.Lock()
	best := -1
	for k := len(l.bufs) - 1; k >= 0; k-- {
		if c := cap(l.bufs[k]); c >= n && (best < 0 || c < cap(l.bufs[best])) {
			best = k
		}
	}
	if best >= 0 {
		b := l.bufs[best]
		l.bufs[best] = l.bufs[len(l.bufs)-1]
		l.bufs = l.bufs[:len(l.bufs)-1]
		l.mu.Unlock()
		return b[:n]
	}
	l.mu.Unlock()
	return make([]T, n)
}

func (l *freeList[T]) put(b []T) {
	l.mu.Lock()
	if len(l.bufs) < mailboxDepth {
		l.bufs = append(l.bufs, b)
	}
	l.mu.Unlock()
}

// inbox is the receive side of one (src, dst) pair: the FIFO of messages
// from src, the free lists their payloads come from, and the payloads most
// recently handed to dst, which return to the free lists when dst's next
// receive of the same kind from src runs — the Transport ownership
// contract, and what keeps steady-state traffic allocation-free.
type inbox struct {
	ch    chan message
	f     freeList[float64]
	i     freeList[int64]
	lastF []float64
	lastI []int64
	// err is why ch was closed; it is written before the close, so a
	// receiver that observes the close reads it.
	err error
}

func newInboxes(n int) []inbox {
	boxes := make([]inbox, n)
	for k := range boxes {
		boxes[k].ch = make(chan message, mailboxDepth)
	}
	return boxes
}

// postFloats delivers a pooled copy of data — the channel fabric's send,
// and a socket endpoint's send to itself. The copy realizes the
// non-retention contract (the channel hands the same backing array to the
// receiver). It never blocks while fewer than mailboxDepth messages are in
// flight on the pair.
func (in *inbox) postFloats(tag Tag, data []float64) {
	cp := in.f.get(len(data))
	copy(cp, data)
	in.ch <- message{kind: frameFloats, tag: tag, f: cp}
}

func (in *inbox) postInts(tag Tag, data []int64) {
	cp := in.i.get(len(data))
	copy(cp, data)
	in.ch <- message{kind: frameInts, tag: tag, i: cp}
}

// close ends the pair: once everything posted before it is received, the
// receiving rank's next receive from the source fails with err.
func (in *inbox) close(err error) {
	in.err = err
	close(in.ch)
}

// receiver is the receive half both fabrics share: one inbox per source,
// the receive deadline, and the request pool. worldTransport and
// SocketTransport embed it and add only how a payload reaches a peer's
// inbox, Close and Kind.
type receiver struct {
	rank, size int
	boxes      []inbox // indexed by source
	reqs       requestPool

	// recvTimeout bounds blocking receives (SetRecvTimeout); the timer
	// realizing it is reused across waits so a bounded steady state stays
	// allocation-free.
	recvTimeout time.Duration
	timer       *time.Timer
}

func (r *receiver) Rank() int                      { return r.rank }
func (r *receiver) Size() int                      { return r.size }
func (r *receiver) SetRecvTimeout(d time.Duration) { r.recvTimeout = d }

// Recv returns the next float payload from src, recycling the previously
// returned one.
func (r *receiver) Recv(src int, tag Tag) []float64 {
	in := &r.boxes[src]
	if in.lastF != nil {
		in.f.put(in.lastF)
		in.lastF = nil
	}
	in.lastF = r.next(src, frameFloats, tag).f
	return in.lastF
}

// RecvInts returns the next int payload from src, recycling the previously
// returned one.
func (r *receiver) RecvInts(src int, tag Tag) []int64 {
	in := &r.boxes[src]
	if in.lastI != nil {
		in.i.put(in.lastI)
		in.lastI = nil
	}
	in.lastI = r.next(src, frameInts, tag).i
	return in.lastI
}

// IrecvF64 posts a nonblocking receive. The message is taken from src's
// inbox by the request's Wait; until then the fabric delivers into the
// inbox concurrently with the caller's compute (on the socket fabric the
// peer's reader goroutine decodes the frame meanwhile).
func (r *receiver) IrecvF64(src int, tag Tag) *Request {
	return r.reqs.get(r, src, tag)
}

// next takes the next message from src under the receive deadline. It
// panics with an ErrTimeout-classified error on expiry, with the inbox's
// own error once a closed inbox is drained, and with a tag-mismatch
// diagnostic if the message is not of the expected kind and tag.
// Endpoints are single-goroutine (see Transport), which makes the timer's
// Reset/Stop/drain sequence race-free.
func (r *receiver) next(src int, kind byte, tag Tag) message {
	in := &r.boxes[src]
	var m message
	ok := true
	if r.recvTimeout <= 0 {
		m, ok = <-in.ch
	} else {
		if r.timer == nil {
			r.timer = time.NewTimer(r.recvTimeout)
		} else {
			r.timer.Reset(r.recvTimeout)
		}
		select {
		case m, ok = <-in.ch:
			if !r.timer.Stop() {
				<-r.timer.C // drain a concurrent expiry so the next Reset is clean
			}
		case <-r.timer.C:
			panic(fmt.Errorf("comm: rank %d recv from %d: %w after %v",
				r.rank, src, ErrTimeout, r.recvTimeout))
		}
	}
	if !ok {
		panic(fmt.Errorf("comm: rank %d recv from %d: %w", r.rank, src, in.err))
	}
	if m.kind != kind || m.tag != tag {
		panic(fmt.Sprintf("comm: rank %d expected tag %d kind %q from %d, got tag %d kind %q",
			r.rank, tag, kind, src, m.tag, m.kind))
	}
	return m
}
