package comm

import (
	"fmt"
	"math"
	"testing"

	"meshgnn/internal/tensor"
)

// eachFabric runs the script on the channel fabric and the socket fabric.
func eachFabric(t *testing.T, size int, fn func(c *Comm) error) {
	t.Helper()
	t.Run("channel", func(t *testing.T) {
		if err := Run(size, fn); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("socket", func(t *testing.T) {
		if err := RunSockets(size, fn); err != nil {
			t.Fatal(err)
		}
	})
}

// TestRequestWaitAfterTest pins the poll-then-collect sequence: Test spins
// until the message arrives, and the subsequent Wait returns the payload
// immediately. Send requests are born complete on both transports.
func TestRequestWaitAfterTest(t *testing.T) {
	eachFabric(t, 2, func(c *Comm) error {
		peer := 1 - c.Rank()
		payload := []float64{math.Pi * float64(1+c.Rank()), math.Copysign(0, -1), float64(c.Rank())}
		sreq := c.Isend(peer, TagUser, payload)
		if !sreq.Test() {
			return fmt.Errorf("send request not complete after Isend")
		}
		if got := sreq.Wait(); got != nil {
			return fmt.Errorf("send Wait returned a payload: %v", got)
		}
		rreq := c.Irecv(peer, TagUser)
		for !rreq.Test() {
		}
		// Wait after a successful Test must not block and must hand out
		// the payload.
		got := rreq.Wait()
		if len(got) != 3 || got[0] != math.Pi*float64(1+peer) {
			return fmt.Errorf("payload corrupted: %v", got)
		}
		if math.Float64bits(got[1]) != math.Float64bits(math.Copysign(0, -1)) {
			return fmt.Errorf("-0.0 not preserved bitwise")
		}
		return nil
	})
}

// TestRequestTestDoesNotConsumeEarly asserts a Test that returns false has
// no side effects: the message posted afterwards still completes the
// request. Rank 2 relays rank 0's "I have tested" token to the sender, so
// no other traffic shares the (1→0) stream while the receive is pending
// (per-pair delivery is FIFO across tags — an interleaved message would
// mispair).
func TestRequestTestDoesNotConsumeEarly(t *testing.T) {
	eachFabric(t, 3, func(c *Comm) error {
		switch c.Rank() {
		case 0:
			req := c.Irecv(1, TagUser)
			if req.Test() {
				return fmt.Errorf("request complete before any send")
			}
			c.Send(2, TagSetup, nil) // token: "I have tested, and it was false"
			if got := req.Wait(); got[0] != 42 {
				return fmt.Errorf("payload %v after failed Test", got)
			}
		case 1:
			c.Recv(2, TagSetup) // wait for the relayed token
			c.Send(0, TagUser, []float64{42})
		case 2:
			c.Recv(0, TagSetup)
			c.Send(1, TagSetup, nil)
		}
		return nil
	})
}

// TestRequestOutOfOrderCompletion posts receives from two sources and
// completes them in the reverse of their arrival order: completion across
// different sources is unconstrained, and waiting on the later arrival
// first must not disturb the earlier one.
func TestRequestOutOfOrderCompletion(t *testing.T) {
	eachFabric(t, 3, func(c *Comm) error {
		if c.Rank() == 0 {
			r1 := c.Irecv(1, TagUser)
			r2 := c.Irecv(2, TagUser)
			// Rank 2 sends immediately; rank 1 sends only after rank 0
			// confirms it has already consumed rank 2's message. So r2's
			// message is guaranteed in first — and r1 is Waited first
			// below only after its own send is released, proving Wait
			// order is free of arrival order.
			for !r2.Test() {
			}
			c.Send(1, TagSetup, nil) // release rank 1's send
			got1 := r1.Wait()
			got2 := r2.Wait()
			if got1[0] != 100 || got2[0] != 200 {
				return fmt.Errorf("payloads %v %v", got1, got2)
			}
			return nil
		}
		if c.Rank() == 1 {
			c.Recv(0, TagSetup) // wait until rank 2's message was consumed
			c.Send(0, TagUser, []float64{100})
			return nil
		}
		c.Send(0, TagUser, []float64{200})
		return nil
	})
}

// TestRequestHandleReuse pins the pooling contract: after Wait releases a
// handle, the next nonblocking operation on the same endpoint reuses it
// instead of allocating.
func TestRequestHandleReuse(t *testing.T) {
	eachFabric(t, 2, func(c *Comm) error {
		peer := 1 - c.Rank()
		c.Send(peer, TagUser, []float64{1})
		r1 := c.Irecv(peer, TagUser)
		r1.Wait()
		c.Send(peer, TagUser, []float64{2})
		r2 := c.Irecv(peer, TagUser)
		if r1 != r2 {
			return fmt.Errorf("request handle not recycled through the pool")
		}
		if got := r2.Wait(); got[0] != 2 {
			return fmt.Errorf("recycled request returned %v", got)
		}
		return nil
	})
}

// TestRequestRecvBufferRecycled extends the payload ownership contract to
// the channel fabric (the socket fabric's version is
// TestSocketRecvBufferReuse): once the next receive from the same source
// completes, the previous payload buffer returns to the pair's pool and
// steady-state traffic reuses it.
func TestRequestRecvBufferRecycled(t *testing.T) {
	if err := Run(1, func(c *Comm) error {
		send := func(k int) { c.Send(0, TagUser, []float64{float64(k), float64(k)}) }
		send(0)
		first := c.Recv(0, TagUser)
		firstVal := first[0]
		send(1) // pool empty (first still held) -> second buffer
		second := c.Recv(0, TagUser)
		send(2) // pool = [first buffer] -> reused
		third := c.Recv(0, TagUser)
		if &first[0] != &third[0] {
			return fmt.Errorf("steady-state channel payload buffer not recycled")
		}
		if firstVal != 0 || second[0] != 1 || third[0] != 2 {
			return fmt.Errorf("payloads corrupted: %v %v %v", firstVal, second, third)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestOverlappedExchange runs the split Start/Finish halo exchange with
// compute between the halves on both fabrics (the socket variant is the
// race-detector shard's overlapped wire test) and checks forward and
// adjoint results match the synchronous composition bitwise.
func TestOverlappedExchange(t *testing.T) {
	for _, mode := range []ExchangeMode{SendRecvMode, NeighborAllToAll, AllToAllMode} {
		t.Run(mode.String(), func(t *testing.T) {
			script := func(split bool) func(c *Comm) ([]float64, error) {
				return func(c *Comm) ([]float64, error) {
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
						src.Data[i] = float64(c.Rank()*100+i) + 0.25
					}
					halo := tensor.New(2, 2)
					interior := 0.0
					if split {
						ex.Start(c, Forward, src, halo, 1)
						for i := 0; i < 1000; i++ { // "interior compute"
							interior += math.Sqrt(float64(i))
						}
						ex.Finish(c)
					} else {
						ex.Exchange(c, Forward, src, halo, 1)
					}
					grad := tensor.New(3, 2)
					if split {
						ex.Start(c, Adjoint, halo, grad, 1)
						for i := 0; i < 1000; i++ {
							interior += math.Sqrt(float64(i))
						}
						ex.Finish(c)
					} else {
						ex.Exchange(c, Adjoint, halo, grad, 1)
					}
					_ = interior
					return append(append([]float64{}, halo.Data...), grad.Data...), nil
				}
			}
			check := func(run func(int, func(c *Comm) ([]float64, error)) ([][]float64, error)) {
				sync, err := run(2, script(false))
				if err != nil {
					t.Fatal(err)
				}
				over, err := run(2, script(true))
				if err != nil {
					t.Fatal(err)
				}
				for r := range sync {
					for i := range sync[r] {
						if math.Float64bits(sync[r][i]) != math.Float64bits(over[r][i]) {
							t.Fatalf("rank %d element %d: sync %v overlapped %v",
								r, i, sync[r][i], over[r][i])
						}
					}
				}
			}
			check(RunCollect[[]float64])
			check(RunSocketsCollect[[]float64])
		})
	}
}

// TestExchangerStartWithoutFinishPanics pins the in-flight guard.
func TestExchangerStartWithoutFinishPanics(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		plan := &HaloPlan{
			Neighbors: []int{1 - c.Rank()},
			SendIdx:   [][]int{{0}},
			RecvIdx:   [][]int{{0}},
		}
		ex, err := NewExchanger(SendRecvMode, plan)
		if err != nil {
			return err
		}
		src := tensor.New(1, 1)
		halo := tensor.New(1, 1)
		ex.Start(c, Forward, src, halo, 1)
		ex.Start(c, Forward, src, halo, 1) // must panic: Finish is missing
		return nil
	})
	if err == nil {
		t.Fatal("double Start did not panic")
	}
}
