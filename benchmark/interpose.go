package main

import (
	"sync/atomic"
	"time"

	"meshgnn"
	"meshgnn/internal/comm"
)

// commCounters accumulates what every rank of a world hands to its
// transport: messages, payload elements (8 bytes each, float64 or int64,
// so bytes are computed from payload sizes, not read off a wire) and the
// wall time the sends took, emulated link delay included.
type commCounters struct {
	msgs, elems, sendNs atomic.Int64
}

type commCounts struct {
	msgs, bytes int64
	send        time.Duration
}

func (c *commCounters) read() commCounts {
	return commCounts{msgs: c.msgs.Load(), bytes: 8 * c.elems.Load(), send: time.Duration(c.sendNs.Load())}
}

func (a commCounts) sub(b commCounts) commCounts {
	return commCounts{msgs: a.msgs - b.msgs, bytes: a.bytes - b.bytes, send: a.send - b.send}
}

// rankCursor names the span that is open on a rank's goroutine, so a send
// the library makes inside it is recorded as its child. Only that rank's
// goroutine touches it.
type rankCursor struct {
	parent, op int
}

// countingTransport is the benchmark's own interposer at the comm layer's
// boundary. Installed outermost (after LinkDelay in ChainWrap), it counts
// every outbound message and records a comm.send span around it.
type countingTransport struct {
	meshgnn.Transport
	c   *commCounters
	tr  *tracer
	cur *rankCursor
}

// wrap returns the interposer factory for RunOnWith / WrapTransport.
// cursors, when non-nil, holds one cursor per rank.
func (c *commCounters) wrap(tr *tracer, cursors []rankCursor) func(meshgnn.Transport) meshgnn.Transport {
	return func(t meshgnn.Transport) meshgnn.Transport {
		ct := &countingTransport{Transport: t, c: c, tr: tr, cur: &rankCursor{parent: root, op: -1}}
		if cursors != nil {
			ct.cur = &cursors[t.Rank()]
		}
		return ct
	}
}

func (t *countingTransport) sent(elems int, start time.Time, id int) {
	t.tr.end(id)
	t.c.msgs.Add(1)
	t.c.elems.Add(int64(elems))
	t.c.sendNs.Add(time.Since(start).Nanoseconds())
}

func (t *countingTransport) Send(dst int, tag comm.Tag, data []float64) {
	start, id := time.Now(), t.tr.begin("comm.send", t.cur.parent, t.cur.op)
	t.Transport.Send(dst, tag, data)
	t.sent(len(data), start, id)
}

func (t *countingTransport) SendInts(dst int, tag comm.Tag, data []int64) {
	start, id := time.Now(), t.tr.begin("comm.send", t.cur.parent, t.cur.op)
	t.Transport.SendInts(dst, tag, data)
	t.sent(len(data), start, id)
}

func (t *countingTransport) IsendF64(dst int, tag comm.Tag, data []float64) *meshgnn.Request {
	start, id := time.Now(), t.tr.begin("comm.send", t.cur.parent, t.cur.op)
	req := t.Transport.IsendF64(dst, tag, data)
	t.sent(len(data), start, id)
	return req
}

// rankComm is a reading of one rank's public communication counters
// (rc.Comm.Stats).
type rankComm struct {
	AllReduces        int64
	Halo, HaloExposed time.Duration
}

func readRankComm(s *comm.Stats) rankComm {
	return rankComm{
		AllReduces:  s.AllReduces,
		Halo:        time.Duration(s.HaloSeconds * float64(time.Second)),
		HaloExposed: time.Duration(s.HaloExposedSeconds * float64(time.Second)),
	}
}

func (a rankComm) sub(b rankComm) rankComm {
	return rankComm{AllReduces: a.AllReduces - b.AllReduces, Halo: a.Halo - b.Halo, HaloExposed: a.HaloExposed - b.HaloExposed}
}
