package comm

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"meshgnn/internal/tensor"
)

// runBoth executes the same collective script on the channel fabric and
// on the socket fabric and returns both result sets for comparison.
func runBoth[T any](t *testing.T, size int, fn func(c *Comm) (T, error)) (inproc, sockets []T) {
	t.Helper()
	inproc, err := RunCollect(size, fn)
	if err != nil {
		t.Fatalf("in-process run: %v", err)
	}
	sockets, err = RunSocketsCollect(size, fn)
	if err != nil {
		t.Fatalf("socket run: %v", err)
	}
	return inproc, sockets
}

// TestSocketTransportKind pins the kind reported by each fabric.
func TestSocketTransportKind(t *testing.T) {
	if err := Run(2, func(c *Comm) error {
		if k := c.TransportKind(); k != InProcess {
			return fmt.Errorf("world transport kind = %v", k)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := RunSockets(2, func(c *Comm) error {
		if k := c.TransportKind(); k != Sockets {
			return fmt.Errorf("socket transport kind = %v", k)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestSocketCollectivesMatchInProcessBitwise runs every collective with
// rank-dependent irrational inputs on both transports and requires
// bitwise-identical results: the deterministic rank-ordered reduction
// must be transport-independent.
func TestSocketCollectivesMatchInProcessBitwise(t *testing.T) {
	for _, size := range []int{1, 2, 3, 5} {
		t.Run(fmt.Sprintf("R=%d", size), func(t *testing.T) {
			script := func(c *Comm) ([]float64, error) {
				rng := rand.New(rand.NewSource(int64(100 + c.Rank())))
				n := 257
				sum := make([]float64, n)
				for i := range sum {
					sum[i] = rng.NormFloat64() * math.Pi
				}
				c.AllReduceSum(sum)

				mx := make([]float64, 33)
				for i := range mx {
					mx[i] = rng.NormFloat64()
				}
				c.AllReduceMax(mx)

				c.Barrier()
				return append(sum, mx...), nil
			}
			inproc, sockets := runBoth(t, size, script)
			for r := range inproc {
				if len(inproc[r]) != len(sockets[r]) {
					t.Fatalf("rank %d: length %d vs %d", r, len(inproc[r]), len(sockets[r]))
				}
				for i := range inproc[r] {
					if math.Float64bits(inproc[r][i]) != math.Float64bits(sockets[r][i]) {
						t.Fatalf("rank %d element %d: inproc %v sockets %v",
							r, i, inproc[r][i], sockets[r][i])
					}
				}
			}
		})
	}
}

// TestSocketSendRecvIntsAndTags exercises the int64 frames and the
// ordering of interleaved float/int traffic between a pair.
func TestSocketSendRecvIntsAndTags(t *testing.T) {
	err := RunSockets(2, func(c *Comm) error {
		peer := 1 - c.Rank()
		ints := []int64{int64(c.Rank()) - 7, math.MaxInt64, math.MinInt64, 0}
		floats := []float64{math.Pi * float64(1+c.Rank()), math.Copysign(0, -1), math.Inf(1)}
		c.SendInts(peer, TagUser, ints)
		c.Send(peer, TagUser+1, floats)
		gotI := c.RecvInts(peer, TagUser)
		want := []int64{int64(peer) - 7, math.MaxInt64, math.MinInt64, 0}
		for i := range want {
			if gotI[i] != want[i] {
				return fmt.Errorf("int %d: got %d want %d", i, gotI[i], want[i])
			}
		}
		gotF := c.Recv(peer, TagUser+1)
		if math.Float64bits(gotF[1]) != math.Float64bits(math.Copysign(0, -1)) {
			return fmt.Errorf("float64 -0.0 not preserved bitwise: got %v", gotF[1])
		}
		if gotF[0] != math.Pi*float64(1+peer) || !math.IsInf(gotF[2], 1) {
			return fmt.Errorf("float payload corrupted: %v", gotF)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSocketLargeSimultaneousSends moves payloads far larger than kernel
// socket buffers in both directions at once: the per-peer reader
// goroutines must drain concurrently or this deadlocks.
func TestSocketLargeSimultaneousSends(t *testing.T) {
	const n = 1 << 20 // 8 MiB per direction
	err := RunSockets(2, func(c *Comm) error {
		peer := 1 - c.Rank()
		data := make([]float64, n)
		for i := range data {
			data[i] = float64(c.Rank()*n + i)
		}
		c.Send(peer, TagUser, data)
		got := c.Recv(peer, TagUser)
		if len(got) != n {
			return fmt.Errorf("got %d elements, want %d", len(got), n)
		}
		for i := 0; i < n; i += 9973 {
			if got[i] != float64(peer*n+i) {
				return fmt.Errorf("element %d corrupted: %v", i, got[i])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSocketRecvBufferReuse pins the ownership contract: once a payload
// buffer has been consumed and recycled (next Recv from the same source),
// subsequent messages of the same size reuse it instead of allocating.
// The loopback path makes the recycling sequence deterministic: buffers
// are drawn from the pool synchronously at Send.
func TestSocketRecvBufferReuse(t *testing.T) {
	err := RunSockets(1, func(c *Comm) error {
		send := func(k int) { c.Send(0, TagUser, []float64{float64(k), float64(k)}) }
		send(0)
		first := c.Recv(0, TagUser)  // buf1 handed out
		firstVal := first[0]         // read before buf1 is recycled below
		send(1)                      // pool empty (buf1 still held) -> buf2
		second := c.Recv(0, TagUser) // recycles buf1
		send(2)                      // pool = [buf1] -> reuses buf1
		third := c.Recv(0, TagUser)
		if &first[0] != &third[0] {
			return fmt.Errorf("steady-state payload buffer not recycled")
		}
		if firstVal != 0 || second[0] != 1 || third[0] != 2 {
			return fmt.Errorf("payloads corrupted: %v %v %v", firstVal, second, third)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSocketTagMismatchPanics mirrors the channel fabric's loud failure
// on mispaired communication patterns.
func TestSocketTagMismatchPanics(t *testing.T) {
	err := RunSockets(2, func(c *Comm) error {
		if c.Rank() == 1 {
			c.Send(0, TagUser, []float64{1})
			return nil
		}
		c.Recv(1, TagUser+5)
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "expected tag") {
		t.Fatalf("want tag-mismatch panic, got %v", err)
	}
}

// TestSocketHandshakeTimesOutOnMissingPeer pins the liveness guarantee:
// if a peer never connects (e.g. a worker process died during setup) the
// handshake fails within the dial timeout instead of hanging forever.
func TestSocketHandshakeTimesOutOnMissingPeer(t *testing.T) {
	dir := t.TempDir()
	opts := SocketOptions{Network: "unix", Dir: dir, DialTimeout: 200 * time.Millisecond}
	done := make(chan error, 1)
	go func() {
		// Rank 0 of a 2-rank world: rank 1 never shows up.
		_, err := NewSocketTransport(opts, 0, 2)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("handshake succeeded with a missing peer")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("handshake hung instead of timing out")
	}
}

// TestSocketTransportTCP runs the collective script over TCP loopback
// instead of Unix sockets.
func TestSocketTransportTCP(t *testing.T) {
	const size = 3
	base := 40000 + rand.Intn(10000)
	opts := SocketOptions{Network: "tcp", BasePort: base}
	results, err := runRanks(size, func(rank int) (Transport, error) {
		return NewSocketTransport(opts, rank, size)
	}, func(c *Comm) (float64, error) {
		buf := []float64{float64(c.Rank() + 1)}
		c.AllReduceSum(buf)
		return buf[0], nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, v := range results {
		if v != 6 {
			t.Fatalf("rank %d: sum = %v, want 6", r, v)
		}
	}
}

// TestSocketWorldSizeOne degenerates to pure loopback.
func TestSocketWorldSizeOne(t *testing.T) {
	err := RunSockets(1, func(c *Comm) error {
		buf := []float64{math.E}
		c.AllReduceSum(buf)
		c.Barrier()
		if buf[0] != math.E {
			return fmt.Errorf("size-1 allreduce changed value: %v", buf[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSocketStatsCount verifies the traffic counters see socket sends.
func TestSocketStatsCount(t *testing.T) {
	res, err := RunSocketsCollect(2, func(c *Comm) (Stats, error) {
		c.Send(1-c.Rank(), TagUser, make([]float64, 10))
		c.Recv(1-c.Rank(), TagUser)
		return c.Stats, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, s := range res {
		if s.MessagesSent != 1 || s.FloatsSent != 10 {
			t.Fatalf("rank %d stats = %+v", r, s)
		}
	}
}

// TestSocketHaloExchange runs a symmetric two-rank halo plan (forward and
// adjoint) through every exchange mode on the socket fabric and checks
// the results match the in-process fabric bitwise.
func TestSocketHaloExchange(t *testing.T) {
	for _, mode := range []ExchangeMode{SendRecvMode, NeighborAllToAll, AllToAllMode} {
		t.Run(mode.String(), func(t *testing.T) {
			script := func(c *Comm) ([]float64, error) {
				plan := &HaloPlan{
					Neighbors: []int{1 - c.Rank()},
					SendIdx:   [][]int{{0, 2}},
					RecvIdx:   [][]int{{0, 1}},
				}
				FinalizePlan(c, plan)
				ex, err := NewExchanger(mode, plan)
				if err != nil {
					return nil, err
				}
				src := tensor.New(3, 2)
				for i := range src.Data {
					src.Data[i] = float64(c.Rank()*100+i) + 0.125
				}
				halo := tensor.New(2, 2)
				ex.Exchange(c, Forward, src, halo, 1)
				grad := tensor.New(3, 2)
				ex.Exchange(c, Adjoint, halo, grad, 1)
				return append(append([]float64{}, halo.Data...), grad.Data...), nil
			}
			inproc, sockets := runBoth(t, 2, script)
			for r := range inproc {
				for i := range inproc[r] {
					if math.Float64bits(inproc[r][i]) != math.Float64bits(sockets[r][i]) {
						t.Fatalf("rank %d element %d: inproc %v sockets %v",
							r, i, inproc[r][i], sockets[r][i])
					}
				}
			}
		})
	}
}
