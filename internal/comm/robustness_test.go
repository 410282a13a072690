package comm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"
)

// --- frame integrity -------------------------------------------------

// rawFrame assembles one wire frame with a valid CRC trailer; tests then
// damage specific fields to probe each validation branch.
func rawFrame(kind byte, tag int32, count uint64, payload []byte) []byte {
	buf := make([]byte, frameHeaderLen+len(payload)+frameTrailerLen)
	buf[0] = kind
	binary.LittleEndian.PutUint32(buf[1:5], uint32(tag))
	binary.LittleEndian.PutUint64(buf[5:frameHeaderLen], count)
	copy(buf[frameHeaderLen:], payload)
	body := len(buf) - frameTrailerLen
	binary.LittleEndian.PutUint32(buf[body:], crc32.Checksum(buf[:body], crcTable))
	return buf
}

// dialAsRank1 stands up a real rank-0 socket transport of a 2-rank world
// and connects to it as a hand-rolled rank 1, returning the raw stream so
// tests can write arbitrary bytes at it.
func dialAsRank1(t *testing.T) (*SocketTransport, net.Conn) {
	t.Helper()
	opts := SocketOptions{Network: "unix", Dir: t.TempDir(), DialTimeout: 5 * time.Second}
	type result struct {
		tr  *SocketTransport
		err error
	}
	done := make(chan result, 1)
	go func() {
		tr, err := NewSocketTransport(opts, 0, 2)
		done <- result{tr, err}
	}()
	conn := dialRank0(t, opts)
	hello := rawFrame(frameHello, 1, 0, nil)
	if _, err := conn.Write(hello); err != nil {
		t.Fatalf("hello: %v", err)
	}
	res := <-done
	if res.err != nil {
		t.Fatalf("rank 0 setup: %v", res.err)
	}
	t.Cleanup(func() { res.tr.Close(); conn.Close() })
	return res.tr, conn
}

func dialRank0(t *testing.T, opts SocketOptions) net.Conn {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		conn, err := net.Dial("unix", opts.addr(0))
		if err == nil {
			return conn
		}
		if time.Now().After(deadline) {
			t.Fatalf("dial rank 0: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// caught runs f and converts its panic into an error.
func caught(f func()) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = PanicError(p)
		}
	}()
	f()
	return nil
}

// TestSocketRejectsMalformedFrames drives hand-rolled corrupt frames at a
// real transport and asserts each is rejected with an ErrCorruptFrame (or
// ErrPeerDown for a truncated stream) diagnostic — strictly before any
// payload allocation for the header attacks, so a forged multi-terabyte
// count cannot take the process down.
func TestSocketRejectsMalformedFrames(t *testing.T) {
	payload8 := make([]byte, 8) // one float64 element
	cases := []struct {
		name    string
		frame   []byte
		close   bool  // close the stream after writing (truncated frame)
		want    error // sentinel expected in the chain
		mention string
	}{
		{
			name:    "oversized count",
			frame:   rawFrame(frameFloats, int32(TagUser), 1<<40, nil),
			want:    ErrCorruptFrame,
			mention: "budget",
		},
		{
			name:    "unknown kind",
			frame:   rawFrame('Z', int32(TagUser), 1, payload8),
			want:    ErrCorruptFrame,
			mention: "kind",
		},
		{
			name:    "out-of-range tag",
			frame:   rawFrame(frameFloats, maxWireTag+7, 1, payload8),
			want:    ErrCorruptFrame,
			mention: "tag",
		},
		{
			name: "bad CRC",
			frame: func() []byte {
				f := rawFrame(frameFloats, int32(TagUser), 1, payload8)
				f[frameHeaderLen] ^= 0x10 // flip a payload bit after sealing
				return f
			}(),
			want:    ErrCorruptFrame,
			mention: "CRC",
		},
		{
			name:  "short payload",
			frame: rawFrame(frameFloats, int32(TagUser), 4, payload8)[:frameHeaderLen+3],
			close: true,
			want:  ErrPeerDown,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr, conn := dialAsRank1(t)
			if _, err := conn.Write(tc.frame); err != nil {
				t.Fatalf("write: %v", err)
			}
			if tc.close {
				conn.Close()
			}
			err := caught(func() { tr.Recv(1, TagUser) })
			if err == nil {
				t.Fatal("malformed frame was accepted")
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("error not classified as %v: %v", tc.want, err)
			}
			if tc.mention != "" && !strings.Contains(err.Error(), tc.mention) {
				t.Fatalf("diagnostic does not mention %q: %v", tc.mention, err)
			}
		})
	}
}

// TestSocketAcceptsValidHandRolledFrame is the positive control for the
// rejection suite: the hand-rolled framing (header layout, CRC seal)
// matches what the transport accepts.
func TestSocketAcceptsValidHandRolledFrame(t *testing.T) {
	tr, conn := dialAsRank1(t)
	payload := make([]byte, 16)
	binary.LittleEndian.PutUint64(payload, 0x3FF0000000000000)     // 1.0
	binary.LittleEndian.PutUint64(payload[8:], 0x4000000000000000) // 2.0
	if _, err := conn.Write(rawFrame(frameFloats, int32(TagUser), 2, payload)); err != nil {
		t.Fatal(err)
	}
	got := tr.Recv(1, TagUser)
	if len(got) != 2 || got[0] != 1.0 || got[1] != 2.0 {
		t.Fatalf("payload corrupted: %v", got)
	}
}

// TestSocketRejectsCorruptHello covers the handshake's integrity checks:
// a hello with a damaged CRC (or the wrong kind) fails setup with an
// ErrCorruptFrame diagnostic instead of admitting a garbage peer.
func TestSocketRejectsCorruptHello(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mangle func([]byte)
	}{
		{"bad CRC", func(h []byte) { h[len(h)-1] ^= 0xFF }},
		{"wrong kind", func(h []byte) { h[0] = 'X' }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := SocketOptions{Network: "unix", Dir: t.TempDir(), DialTimeout: 2 * time.Second}
			done := make(chan error, 1)
			go func() {
				tr, err := NewSocketTransport(opts, 0, 2)
				if err == nil {
					tr.Close()
				}
				done <- err
			}()
			conn := dialRank0(t, opts)
			defer conn.Close()
			hello := rawFrame(frameHello, 1, 0, nil)
			tc.mangle(hello)
			if _, err := conn.Write(hello); err != nil {
				t.Fatal(err)
			}
			select {
			case err := <-done:
				if err == nil {
					t.Fatal("corrupt hello accepted")
				}
				if !errors.Is(err, ErrCorruptFrame) {
					t.Fatalf("error not classified as corrupt frame: %v", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("handshake hung on corrupt hello")
			}
		})
	}
}

// --- deadlines -------------------------------------------------------

// TestRecvTimeoutClassified pins the receive deadline on both fabrics: a
// Recv with no sender panics with an ErrTimeout-classified error instead
// of hanging, and the rank runner preserves the class in the run's error.
func TestRecvTimeoutClassified(t *testing.T) {
	for name, run := range map[string]func(int, func(c *Comm) error) error{
		"inproc":  Run,
		"sockets": RunSockets,
	} {
		t.Run(name, func(t *testing.T) {
			start := time.Now()
			err := run(2, func(c *Comm) error {
				if c.Rank() == 0 {
					c.SetRecvTimeout(100 * time.Millisecond)
					c.Recv(1, TagUser) // rank 1 never sends
				} else {
					// Outlive the deadline so rank 0 sees a timeout,
					// not a closing connection.
					time.Sleep(time.Second)
				}
				return nil
			})
			if err == nil || !errors.Is(err, ErrTimeout) {
				t.Fatalf("want ErrTimeout, got %v", err)
			}
			if elapsed := time.Since(start); elapsed > 5*time.Second {
				t.Fatalf("timeout took %v, want ~100ms", elapsed)
			}
		})
	}
}

// TestClosedRankReleasesPeers pins what a rank that returns or panics
// leaves its peers, on both fabrics: a peer blocked in a receive from it —
// a plain Recv or a receive Request's Wait — first gets every message the
// rank sent before it closed, then ErrPeerClosed, within 2 s although its
// receive deadline is 30 s.
func TestClosedRankReleasesPeers(t *testing.T) {
	for _, exit := range []string{"return", "panic"} {
		for _, recv := range []string{"Recv", "Wait"} {
			t.Run(exit+"/"+recv, func(t *testing.T) {
				for _, f := range fabrics {
					t.Run(f.name, func(t *testing.T) {
						start := time.Now()
						var peerErr error // rank 1's outcome; the run reports rank 0's
						f.run(2, nil, func(c *Comm) (err error) {
							if c.Rank() == 0 {
								c.Send(1, TagUser, []float64{7})
								if exit == "panic" {
									panic("rank 0 fails")
								}
								return nil
							}
							defer func() { peerErr = err }()
							c.SetRecvTimeout(30 * time.Second)
							if got := c.Recv(0, TagUser); len(got) != 1 || got[0] != 7 {
								return fmt.Errorf("message sent before the close: got %v", got)
							}
							err = caught(func() {
								if recv == "Recv" {
									c.Recv(0, TagUser)
								} else {
									c.Irecv(0, TagUser).Wait()
								}
							})
							if err == nil {
								return fmt.Errorf("a receive from a closed rank returned")
							}
							return err
						})
						if !errors.Is(peerErr, ErrPeerClosed) {
							t.Fatalf("want rank 1 to fail with ErrPeerClosed, got %v", peerErr)
						}
						if elapsed := time.Since(start); elapsed > 2*time.Second {
							t.Fatalf("the peer was released after %v, want < 2s", elapsed)
						}
					})
				}
			})
		}
	}
}

// TestRunReportsFailingRank pins the runners' root cause on both fabrics:
// rank 1 returns an error while rank 0 waits on it, rank 0's receive then
// fails with ErrPeerClosed, and the run reports rank 1's own error in its
// place.
func TestRunReportsFailingRank(t *testing.T) {
	for _, f := range fabrics {
		t.Run(f.name, func(t *testing.T) {
			err := f.run(2, nil, func(c *Comm) error {
				if c.Rank() == 1 {
					return errors.New("boom")
				}
				c.SetRecvTimeout(30 * time.Second)
				c.Recv(1, TagUser)
				return nil
			})
			if err == nil || err.Error() != "rank 1: boom" {
				t.Fatalf("want \"rank 1: boom\", got %v", err)
			}
		})
	}
}

// TestBoundedRecvAllocFree asserts the receive deadline costs nothing in
// steady state: the deadline timer is allocated once and reused, so a
// bounded Send/Recv loop on the channel fabric performs zero allocations
// per round — the contract that lets serving arm deadlines by default.
func TestBoundedRecvAllocFree(t *testing.T) {
	w := NewWorld(2)
	t0, t1 := w.Transport(0), w.Transport(1)
	t0.SetRecvTimeout(time.Minute)
	buf := []float64{1, 2, 3}
	// Warm the pair pool and the reused timer.
	t1.Send(0, TagUser, buf)
	t0.Recv(1, TagUser)
	allocs := testing.AllocsPerRun(200, func() {
		t1.Send(0, TagUser, buf)
		t0.Recv(1, TagUser)
	})
	if allocs != 0 {
		t.Fatalf("bounded steady-state recv allocates %v per round, want 0", allocs)
	}
}

// TestDialRetryBounded pins the dial path's failure bound: a peer that
// never listens surfaces as a classified handshake error within the dial
// timeout (plus scheduling slack), not a hang and not an unclassified
// string.
func TestDialRetryBounded(t *testing.T) {
	opts := SocketOptions{Network: "unix", Dir: t.TempDir(), DialTimeout: 150 * time.Millisecond}
	start := time.Now()
	done := make(chan error, 1)
	go func() {
		// Rank 1 of a 2-rank world dials rank 0, which never exists.
		tr, err := NewSocketTransport(opts, 1, 2)
		if err == nil {
			tr.Close()
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("handshake succeeded with no peer listening")
		}
		if !errors.Is(err, ErrPeerDown) {
			t.Fatalf("dial failure not classified as ErrPeerDown: %v", err)
		}
		if elapsed := time.Since(start); elapsed < 100*time.Millisecond || elapsed > 10*time.Second {
			t.Fatalf("dial retries ran %v, want ≈ the 150ms dial timeout", elapsed)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("dial retry loop hung past its timeout")
	}
}

// --- fault injection -------------------------------------------------

// TestRandomFaultPlanDeterministic pins the chaos harness's foundation:
// the same seed yields the identical schedule, different seeds differ.
func TestRandomFaultPlanDeterministic(t *testing.T) {
	a := RandomFaultPlan(7, 4, 10, 500)
	b := RandomFaultPlan(7, 4, 10, 500)
	if !reflect.DeepEqual(a.events, b.events) {
		t.Fatal("same seed produced different schedules")
	}
	c := RandomFaultPlan(8, 4, 10, 500)
	if reflect.DeepEqual(a.events, c.events) {
		t.Fatal("different seeds produced the same schedule")
	}
	for rank, evs := range a.events {
		for _, ev := range evs {
			if ev.Kind == FaultDropSend || ev.Kind == FaultDupSend {
				t.Fatalf("rank %d: random plan drew undetectable kind %v", rank, ev.Kind)
			}
		}
	}
}

// TestFaultDelayTransparent asserts a delay fault changes nothing but
// wall time: payloads arrive intact.
func TestFaultDelayTransparent(t *testing.T) {
	plan := NewFaultPlan().
		Add(0, FaultEvent{AfterOps: 0, Kind: FaultDelay, Peer: -1, Delay: 5 * time.Millisecond})
	err := RunWith(2, plan.Wrap, func(c *Comm) error {
		peer := 1 - c.Rank()
		c.Send(peer, TagUser, []float64{float64(c.Rank())})
		got := c.Recv(peer, TagUser)
		if len(got) != 1 || got[0] != float64(peer) {
			return fmt.Errorf("payload corrupted through delay: %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFaultPeerDownClassified asserts an injected peer death fails the
// touching operation with both ErrFault and ErrPeerDown in the chain.
func TestFaultPeerDownClassified(t *testing.T) {
	plan := NewFaultPlan().
		Add(0, FaultEvent{AfterOps: 0, Kind: FaultPeerDown, Peer: 1})
	err := RunWith(2, plan.Wrap, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, TagUser, []float64{1})
		} else {
			c.SetRecvTimeout(time.Second)
			c.Recv(0, TagUser)
		}
		return nil
	})
	if err == nil || !errors.Is(err, ErrFault) || !errors.Is(err, ErrPeerDown) {
		t.Fatalf("want ErrFault+ErrPeerDown, got %v", err)
	}
}

// TestFaultDropSendIsend covers the nonblocking drop path: the swallowed
// Isend hands back a working born-complete request (Wait returns nil and
// releases the handle), while the receiver's Wait under its receive
// deadline panics with ErrTimeout. The sender stays up until the
// receiver's wait is over (a closed sender would report ErrPeerClosed
// instead, TestClosedRankReleasesPeers).
func TestFaultDropSendIsend(t *testing.T) {
	plan := NewFaultPlan().
		Add(0, FaultEvent{AfterOps: 0, Kind: FaultDropSend, Peer: 1})
	err := RunWith(2, plan.Wrap, func(c *Comm) error {
		if c.Rank() == 0 {
			if data := c.Isend(1, TagUser, []float64{1}).Wait(); data != nil {
				return fmt.Errorf("send Wait returned data %v", data)
			}
			c.Recv(1, TagUser+1)
			return nil
		}
		c.SetRecvTimeout(200 * time.Millisecond)
		r := c.Irecv(0, TagUser)
		err := caught(func() { r.Wait() })
		c.Send(0, TagUser+1, nil)
		if !errors.Is(err, ErrTimeout) {
			return fmt.Errorf("receiver of dropped send: want ErrTimeout, got %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFaultCorruptFrameDetectedOnBothFabrics asserts the central
// integrity property: injected corruption is always rejected by the
// receiving side — CRC on the wire, the tag check on the channel fabric —
// and never delivered as data.
func TestFaultCorruptFrameDetectedOnBothFabrics(t *testing.T) {
	script := func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, TagUser, []float64{1, 2, 3})
		} else {
			c.SetRecvTimeout(2 * time.Second)
			got := c.Recv(0, TagUser)
			return fmt.Errorf("corrupt frame delivered as data: %v", got)
		}
		return nil
	}
	plan := func() *FaultPlan {
		return NewFaultPlan().
			Add(0, FaultEvent{AfterOps: 0, Kind: FaultCorruptFrame, Peer: 1, Bit: 77})
	}
	err := RunWith(2, plan().Wrap, script)
	if err == nil || !strings.Contains(err.Error(), "expected tag") {
		t.Fatalf("inproc: want tag-check rejection, got %v", err)
	}
	err = RunSocketsWith(2, plan().Wrap, script)
	if err == nil || !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("sockets: want ErrCorruptFrame, got %v", err)
	}
}

// TestFaultPanicClassified asserts the injected panic carries ErrFault
// through the rank runner's recovery.
func TestFaultPanicClassified(t *testing.T) {
	plan := NewFaultPlan().
		Add(0, FaultEvent{AfterOps: 2, Kind: FaultPanic, Peer: -1})
	err := RunWith(2, plan.Wrap, func(c *Comm) error {
		c.SetRecvTimeout(time.Second)
		peer := 1 - c.Rank()
		for i := 0; i < 4; i++ {
			c.Send(peer, TagUser, []float64{1})
			c.Recv(peer, TagUser)
		}
		return nil
	})
	if err == nil || !errors.Is(err, ErrFault) {
		t.Fatalf("want ErrFault, got %v", err)
	}
}

// TestFaultTransportDelegates sanity-checks the wrapper's passthrough
// surface: rank, size, kind, and op accounting.
func TestFaultTransportDelegates(t *testing.T) {
	w := NewWorld(2)
	ft := NewFaultTransport(w.Transport(0), nil)
	if ft.Rank() != 0 || ft.Size() != 2 || ft.Kind() != InProcess {
		t.Fatalf("delegation broken: rank %d size %d kind %v", ft.Rank(), ft.Size(), ft.Kind())
	}
	if ft.Ops() != 0 {
		t.Fatalf("fresh wrapper reports %d ops", ft.Ops())
	}
	ft.Send(0, TagUser, []float64{1}) // loopback
	ft.Recv(0, TagUser)
	if ft.Ops() != 2 {
		t.Fatalf("op counter = %d after two ops", ft.Ops())
	}
	if err := ft.Close(); err != nil {
		t.Fatal(err)
	}
}
