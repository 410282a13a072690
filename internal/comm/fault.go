package comm

import (
	"fmt"
	"math/rand"
	"time"
)

// FaultKind names the failure modes FaultTransport can manufacture.
type FaultKind int

const (
	// FaultDelay stalls the faulted operation for FaultEvent.Delay before
	// letting it proceed unchanged — scheduling skew and network jitter.
	// Outcome: the run completes with a bitwise-correct result (delays
	// never change data), unless the stall outlives a configured deadline,
	// which then fires as an ordinary ErrTimeout.
	FaultDelay FaultKind = iota
	// FaultPeerDown marks a peer permanently dead from this endpoint's
	// point of view: the faulted operation and every later operation
	// touching that peer panic with an error wrapping both ErrFault and
	// ErrPeerDown — the local observation of a closed or reset stream.
	FaultPeerDown
	// FaultDropSend swallows one outbound message: the send reports
	// success but nothing reaches the peer — a lost frame. Outcome: the
	// matching receive times out (ErrTimeout) if a deadline is armed, or
	// a later same-source receive fails the tag check. Under pipelined
	// same-tag traffic a dropped frame can alias the next one
	// undetectably, which is exactly the gap frame tags cannot close —
	// use targeted schedules (distinct tags per step) to test this fault,
	// and see RandomFaultPlan, which excludes it for that reason.
	FaultDropSend
	// FaultDupSend transmits one outbound message twice — a retransmit
	// bug. Outcome: the duplicate answers the peer's *next* receive from
	// this rank, which fails the tag check (distinct-tag traffic) or goes
	// undetected (same-tag pipelined traffic); excluded from
	// RandomFaultPlan like FaultDropSend.
	FaultDupSend
	// FaultCorruptFrame damages one outbound message in a way the
	// receiver must detect: on the socket fabric a wire bit is flipped
	// after the CRC trailer is sealed, so the receiving rank rejects the
	// frame with ErrCorruptFrame; on the channel fabric (which has no
	// wire) the message's tag is poisoned, so the receive fails its tag
	// check. Both fabrics therefore fail loudly — corrupt data is never
	// delivered as valid.
	FaultCorruptFrame
	// FaultPanic makes the faulted operation panic with an
	// ErrFault-classified error — a rank blowing up mid-collective. The
	// rank runner's recover converts it into the run's error; peers
	// blocked on the dead rank unwind via their receive deadlines
	// (channel fabric) or the closed stream (socket fabric).
	FaultPanic
)

func (k FaultKind) String() string {
	switch k {
	case FaultDelay:
		return "delay"
	case FaultPeerDown:
		return "peer-down"
	case FaultDropSend:
		return "drop-send"
	case FaultDupSend:
		return "dup-send"
	case FaultCorruptFrame:
		return "corrupt-frame"
	case FaultPanic:
		return "panic"
	}
	return fmt.Sprintf("FaultKind(%d)", int(k))
}

// FaultEvent is one scheduled fault on one endpoint. Events trigger by
// operation count — deterministic under any goroutine schedule, unlike
// wall-clock triggers — and fire on the first eligible operation at or
// after AfterOps: any operation for FaultDelay/FaultPanic/FaultPeerDown,
// the next send for the send-directed kinds.
type FaultEvent struct {
	// AfterOps is the 0-based operation index (counting every Send, Recv,
	// SendInts, RecvInts, IsendF64, IrecvF64 on the endpoint) from which
	// this event is eligible to fire.
	AfterOps int
	// Kind selects the failure mode.
	Kind FaultKind
	// Peer restricts the event to operations touching that rank; -1
	// matches any operation (for FaultPeerDown it then kills whichever
	// peer the triggering operation addresses).
	Peer int
	// Delay is the stall length for FaultDelay.
	Delay time.Duration
	// Bit selects which wire bit FaultCorruptFrame flips (mod frame
	// length) on the socket fabric.
	Bit int
}

// FaultPlan is a per-rank fault schedule for one run. Build it with Add,
// then hand Wrap to RunWith/RunSocketsWith (or ServeOptions.WrapTransport)
// to interpose a FaultTransport on every scheduled rank. A plan is
// read-only once the run starts and may be reused across runs: each Wrap
// call builds fresh per-endpoint state, so the same plan replays the same
// schedule — the property the chaos harness's "same seed, same outcome"
// assertions rely on.
type FaultPlan struct {
	events map[int][]FaultEvent
}

// NewFaultPlan returns an empty schedule.
func NewFaultPlan() *FaultPlan {
	return &FaultPlan{events: make(map[int][]FaultEvent)}
}

// Add schedules ev on the given rank's endpoint and returns the plan for
// chaining.
func (p *FaultPlan) Add(rank int, ev FaultEvent) *FaultPlan {
	p.events[rank] = append(p.events[rank], ev)
	return p
}

// Wrap is the per-rank transport wrapper realizing the plan: endpoints
// with scheduled events are wrapped in a FaultTransport, the rest pass
// through untouched. Pass it to RunWith, RunSocketsWith, or
// ServeOptions.WrapTransport.
func (p *FaultPlan) Wrap(t Transport) Transport {
	evs := p.events[t.Rank()]
	if len(evs) == 0 {
		return t
	}
	return NewFaultTransport(t, evs)
}

// RandomFaultPlan draws a deterministic fault schedule from seed: n
// events spread across size ranks with trigger points below maxOps. The
// same (seed, size, n, maxOps) always yields the same plan. Only
// receiver-detectable kinds are drawn — delays, peer deaths, injected
// panics, frame corruption — never FaultDropSend/FaultDupSend, whose
// aliasing under pipelined same-tag traffic has no detectable outcome to
// assert (see their docs); delays are drawn with double weight so some
// seeds exercise the fault-free-result path.
func RandomFaultPlan(seed int64, size, n, maxOps int) *FaultPlan {
	rng := rand.New(rand.NewSource(seed))
	kinds := []FaultKind{
		FaultDelay, FaultDelay, FaultPeerDown, FaultCorruptFrame, FaultPanic,
	}
	p := NewFaultPlan()
	for i := 0; i < n; i++ {
		ev := FaultEvent{
			AfterOps: rng.Intn(maxOps),
			Kind:     kinds[rng.Intn(len(kinds))],
			Peer:     -1,
		}
		switch ev.Kind {
		case FaultDelay:
			ev.Delay = time.Duration(1+rng.Intn(3)) * time.Millisecond
		case FaultCorruptFrame:
			ev.Bit = rng.Intn(4096)
		}
		p.Add(rng.Intn(size), ev)
	}
	return p
}

// poisonTagBit is the tag bit FaultCorruptFrame flips on the channel
// fabric (and on socket loopback sends, which never cross the wire): high
// enough that no application tag carries it, so the receiver's tag check
// always rejects the poisoned message.
const poisonTagBit = Tag(1 << 19)

// FaultTransport interposes a deterministic fault schedule between a rank
// and its real transport endpoint. It implements Transport, so every
// layer above — collectives, halo exchanger, serving facade — runs
// unmodified while the schedule injects delays, peer deaths, lost and
// duplicated messages, on-the-wire corruption, and rank panics underneath
// it. Fault-free operations delegate straight through, preserving the
// inner fabric's ordering, ownership, and allocation behaviour.
//
// Like any Transport endpoint it is single-goroutine: the op counter and
// schedule state are owned by the rank goroutine.
type FaultTransport struct {
	inner Transport
	evs   []FaultEvent
	fired []bool
	ops   int
	dead  map[int]bool
	reqs  requestPool // born-complete handles for swallowed IsendF64s
}

// NewFaultTransport wraps inner with the given event schedule. Most
// callers go through FaultPlan.Wrap instead.
func NewFaultTransport(inner Transport, evs []FaultEvent) *FaultTransport {
	return &FaultTransport{
		inner: inner,
		evs:   evs,
		fired: make([]bool, len(evs)),
		dead:  make(map[int]bool),
	}
}

// Ops returns the number of operations the endpoint has performed —
// deterministic for a deterministic workload, which is how the chaos
// harness calibrates trigger points ("fire during the second request")
// without guessing: run once fault-free, read Ops, schedule. Read it only
// after the rank world has exited (the counter is rank-goroutine state).
func (t *FaultTransport) Ops() int { return t.ops }

func (t *FaultTransport) Rank() int                      { return t.inner.Rank() }
func (t *FaultTransport) Size() int                      { return t.inner.Size() }
func (t *FaultTransport) Kind() TransportKind            { return t.inner.Kind() }
func (t *FaultTransport) Close() error                   { return t.inner.Close() }
func (t *FaultTransport) SetRecvTimeout(d time.Duration) { t.inner.SetRecvTimeout(d) }

// tick advances the op counter, fires every eligible inline fault
// (delay, panic, peer death), and returns the first eligible
// send-directed fault when the operation is a send (nil otherwise). A
// peer-down panic fires for operations touching a dead peer, whether the
// death was injected on this very tick or ops ago.
func (t *FaultTransport) tick(peer int, isSend bool) *FaultEvent {
	op := t.ops
	t.ops++
	var sendFault *FaultEvent
	for i := range t.evs {
		ev := &t.evs[i]
		if t.fired[i] || op < ev.AfterOps {
			continue
		}
		if ev.Peer >= 0 && ev.Peer != peer {
			continue
		}
		switch ev.Kind {
		case FaultDelay:
			t.fired[i] = true
			time.Sleep(ev.Delay)
		case FaultPanic:
			t.fired[i] = true
			panic(fmt.Errorf("comm: rank %d: %w: injected panic at op %d",
				t.Rank(), ErrFault, op))
		case FaultPeerDown:
			t.fired[i] = true
			victim := ev.Peer
			if victim < 0 {
				victim = peer
			}
			t.dead[victim] = true
		case FaultDropSend, FaultDupSend, FaultCorruptFrame:
			if isSend && sendFault == nil {
				t.fired[i] = true
				sendFault = ev
			}
		}
	}
	if t.dead[peer] {
		panic(fmt.Errorf("comm: rank %d op %d touches dead peer %d: %w: %w",
			t.Rank(), op, peer, ErrFault, ErrPeerDown))
	}
	return sendFault
}

// sendFaulted routes one outbound message through the fired send fault.
// The send callback transmits through the inner transport with the given
// tag; corruption picks the wire hook on the socket fabric and tag
// poisoning everywhere a wire doesn't exist (channel fabric, loopback).
func (t *FaultTransport) sendFaulted(ev *FaultEvent, dst int, tag Tag, send func(tag Tag)) {
	switch ev.Kind {
	case FaultDropSend:
		// Swallowed: the caller sees success, the peer sees nothing.
	case FaultDupSend:
		send(tag)
		send(tag)
	case FaultCorruptFrame:
		if st, ok := t.inner.(*SocketTransport); ok && dst != t.Rank() {
			st.corruptNextFrame(ev.Bit)
			send(tag)
		} else {
			send(tag ^ poisonTagBit)
		}
	}
}

func (t *FaultTransport) Send(dst int, tag Tag, data []float64) {
	if ev := t.tick(dst, true); ev != nil {
		t.sendFaulted(ev, dst, tag, func(tg Tag) { t.inner.Send(dst, tg, data) })
		return
	}
	t.inner.Send(dst, tag, data)
}

func (t *FaultTransport) SendInts(dst int, tag Tag, data []int64) {
	if ev := t.tick(dst, true); ev != nil {
		t.sendFaulted(ev, dst, tag, func(tg Tag) { t.inner.SendInts(dst, tg, data) })
		return
	}
	t.inner.SendInts(dst, tag, data)
}

func (t *FaultTransport) Recv(src int, tag Tag) []float64 {
	t.tick(src, false)
	return t.inner.Recv(src, tag)
}

func (t *FaultTransport) RecvInts(src int, tag Tag) []int64 {
	t.tick(src, false)
	return t.inner.RecvInts(src, tag)
}

// IsendF64 applies send faults at post time. A swallowed send returns a
// born-complete handle from the wrapper's own pool — Wait and Test behave
// normally, the peer just never hears about it.
func (t *FaultTransport) IsendF64(dst int, tag Tag, data []float64) *Request {
	if ev := t.tick(dst, true); ev != nil {
		if ev.Kind == FaultDropSend {
			return t.reqs.get(t, false, dst, tag)
		}
		var last *Request
		t.sendFaulted(ev, dst, tag, func(tg Tag) { last = t.inner.IsendF64(dst, tg, data) })
		if last == nil { // defensive: every non-drop path posts at least once
			return t.reqs.get(t, false, dst, tag)
		}
		return last
	}
	return t.inner.IsendF64(dst, tag, data)
}

func (t *FaultTransport) IrecvF64(src int, tag Tag) *Request {
	t.tick(src, false)
	return t.inner.IrecvF64(src, tag)
}

// reqOwner for the wrapper's own born-complete send handles (swallowed
// IsendF64s). Inner-posted requests keep their inner owner.
func (t *FaultTransport) progress(r *Request, block bool) bool { return true }
func (t *FaultTransport) progressTimeout(r *Request, d time.Duration) (bool, error) {
	return true, nil
}
func (t *FaultTransport) releaseRequest(r *Request) { t.reqs.put(r) }
