package comm

// Request is the handle of a nonblocking point-to-point operation
// (Transport.IsendF64 / Transport.IrecvF64) — the library's stand-in for
// MPI_Request in the paper's custom isend/irecv halo implementation.
//
// Lifecycle and ownership contract:
//
//   - Requests are pooled per transport endpoint: Wait returns the handle
//     to its endpoint's free list, so a steady-state exchange pattern
//     (post, compute, Wait, repeat) performs no heap allocation. A Request
//     must not be touched after Wait returns.
//   - A pending receive takes nothing from its source until Wait, which
//     returns the message payload under the same ownership rule as
//     blocking Recv: the slice belongs to the transport and stays valid
//     until the next receive — blocking or nonblocking — completes from the
//     same source. For sends, Wait returns nil.
//   - Both shipped transports complete sends eagerly (the channel fabric
//     copies into a pooled buffer; the socket fabric writes the frame to
//     the kernel before returning), so a send Request is born complete and
//     the data buffer may be reused as soon as IsendF64 returns. The
//     Request is still returned so callers can treat both directions
//     uniformly.
//   - At most one receive may be outstanding per source at a time, and a
//     pending IrecvF64 must not be interleaved with a blocking Recv from
//     the same source: per-pair delivery is FIFO, so the next message from
//     that source answers whichever receive runs first.
//   - Requests are not goroutine-safe: they must be posted and waited on
//     the goroutine that owns the transport endpoint (the rank goroutine),
//     like every other Transport operation.
type Request struct {
	pool *requestPool // the endpoint's free list Wait returns the handle to
	rx   *receiver    // the receiving endpoint; nil for a send
	peer int
	tag  Tag
}

// Wait blocks until the operation completes, releases the handle back to
// its endpoint's pool, and returns the received payload (nil for sends).
// The Request must not be used after Wait returns. If the endpoint
// carries a receive deadline (SetRecvTimeout), a Wait exceeding it panics
// with an ErrTimeout-classified error — the mechanism that unwinds a rank
// stuck in a collective whose peer died.
func (r *Request) Wait() []float64 {
	var data []float64
	if r.rx != nil {
		data = r.rx.Recv(r.peer, r.tag)
	}
	r.pool.put(r)
	return data
}

// requestPool is a per-endpoint free list of Request handles. Endpoints
// are single-goroutine (see Transport), so no locking is needed.
type requestPool struct {
	free []*Request
}

// get pops (or makes) a handle for one operation: a receive from peer on
// rx, or a born-complete send to peer when rx is nil.
func (p *requestPool) get(rx *receiver, peer int, tag Tag) *Request {
	var r *Request
	if n := len(p.free); n > 0 {
		r = p.free[n-1]
		p.free = p.free[:n-1]
	} else {
		r = new(Request)
	}
	*r = Request{pool: p, rx: rx, peer: peer, tag: tag}
	return r
}

// put resets a handle and returns it to the free list.
func (p *requestPool) put(r *Request) {
	r.rx = nil
	p.free = append(p.free, r)
}
