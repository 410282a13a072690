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
	for _, f := range fabrics {
		t.Run(f.name, func(t *testing.T) {
			if err := f.run(size, nil, fn); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRequestOutOfOrderCompletion posts receives from two sources and
// completes them in the reverse of their posting order: completion across
// different sources is unconstrained, and a pending receive is untouched
// until its message arrives — rank 1 sends only once rank 0 has waited on
// rank 2's message, long after r1 was posted. Both payloads carry -0.0,
// which both fabrics deliver bit for bit, and the release is an Isend
// whose Wait returns nil.
func TestRequestOutOfOrderCompletion(t *testing.T) {
	negZero := math.Copysign(0, -1)
	eachFabric(t, 3, func(c *Comm) error {
		switch c.Rank() {
		case 0:
			r1 := c.Irecv(1, TagUser)
			r2 := c.Irecv(2, TagUser)
			got2 := r2.Wait()
			if got := c.Isend(1, TagSetup, nil).Wait(); got != nil {
				return fmt.Errorf("send Wait returned a payload: %v", got)
			}
			got1 := r1.Wait()
			if len(got1) != 2 || got1[0] != 100 || len(got2) != 2 || got2[0] != 200 {
				return fmt.Errorf("payloads %v %v", got1, got2)
			}
			if math.Float64bits(got1[1]) != math.Float64bits(negZero) ||
				math.Float64bits(got2[1]) != math.Float64bits(negZero) {
				return fmt.Errorf("-0.0 not preserved bitwise: %v %v", got1, got2)
			}
		case 1:
			c.Recv(0, TagSetup) // wait until rank 2's message was consumed
			c.Send(0, TagUser, []float64{100, negZero})
		case 2:
			c.Send(0, TagUser, []float64{200, negZero})
		}
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
