package comm

import "time"

// LinkDelay returns a transport interposer that emulates a link with a
// fixed per-message wire latency d: every outbound transfer — Send,
// SendInts, IsendF64 — occupies the endpoint for d before the frame is
// handed to the real fabric. Receives, deadlines, and request semantics
// pass through untouched, so the wrapper composes with FaultPlan.Wrap
// and the serving deadline machinery.
//
// Purpose. All shipped fabrics live on one host, where a frame crosses
// the "wire" in microseconds; a real interconnect costs tens to hundreds
// of microseconds per hop, and it is exactly that dead time which
// latency-hiding machinery — overlapped exchanges, coalesced batches,
// concurrent serving sessions — exists to fill. Wrapping a world in
// LinkDelay makes the single-host fabric latency-bound on purpose, so
// saturation studies (the benchmark's train_halo and serve_* workloads)
// measure how much of the emulated wire time the layer under test
// can hide, reproducibly on any machine.
//
// The stall is modeled on the sending side (the endpoint blocks while
// the message occupies the link, as on a half-duplex NIC), which keeps
// the wrapper transport-agnostic: payload bits, ordering, and tags are
// untouched, so results remain bitwise-identical to the bare fabric —
// delays never change data, only schedules.
//
// d <= 0 returns the identity interposer.
func LinkDelay(d time.Duration) func(Transport) Transport {
	if d <= 0 {
		return func(t Transport) Transport { return t }
	}
	return func(t Transport) Transport { return &delayTransport{inner: t, d: d} }
}

// ChainWrap composes transport interposers left to right: the first
// wrapper is innermost (closest to the real fabric). nil entries are
// skipped, so optional hooks chain without special-casing — e.g.
// ChainWrap(plan.Wrap, LinkDelay(200*time.Microsecond)) injects faults
// beneath an emulated slow link.
func ChainWrap(wraps ...func(Transport) Transport) func(Transport) Transport {
	return func(t Transport) Transport {
		for _, w := range wraps {
			if w != nil {
				t = w(t)
			}
		}
		return t
	}
}

// delayTransport stalls every outbound transfer by a fixed latency and
// delegates everything else. Like any endpoint it is single-goroutine.
type delayTransport struct {
	inner Transport
	d     time.Duration
}

func (t *delayTransport) Rank() int                      { return t.inner.Rank() }
func (t *delayTransport) Size() int                      { return t.inner.Size() }
func (t *delayTransport) Kind() TransportKind            { return t.inner.Kind() }
func (t *delayTransport) Close() error                   { return t.inner.Close() }
func (t *delayTransport) SetRecvTimeout(d time.Duration) { t.inner.SetRecvTimeout(d) }

func (t *delayTransport) Send(dst int, tag Tag, data []float64) {
	time.Sleep(t.d)
	t.inner.Send(dst, tag, data)
}

func (t *delayTransport) SendInts(dst int, tag Tag, data []int64) {
	time.Sleep(t.d)
	t.inner.SendInts(dst, tag, data)
}

func (t *delayTransport) IsendF64(dst int, tag Tag, data []float64) *Request {
	time.Sleep(t.d)
	return t.inner.IsendF64(dst, tag, data)
}

func (t *delayTransport) Recv(src int, tag Tag) []float64   { return t.inner.Recv(src, tag) }
func (t *delayTransport) RecvInts(src int, tag Tag) []int64 { return t.inner.RecvInts(src, tag) }
func (t *delayTransport) IrecvF64(src int, tag Tag) *Request {
	return t.inner.IrecvF64(src, tag)
}
