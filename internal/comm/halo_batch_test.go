package comm

import (
	"math/rand"
	"testing"

	"meshgnn/internal/tensor"
)

// TestHaloExchangeBatchParity checks the batched exchange's contract on
// every mode: sample b of the stacked halo must be bitwise-identical to a
// separate batch-1 exchange of sample b, and the whole batch must ride
// on the same number of messages as a single unbatched exchange.
func TestHaloExchangeBatchParity(t *testing.T) {
	const batch = 3
	for _, mode := range []ExchangeMode{NoExchange, AllToAllMode, NeighborAllToAll} {
		type result struct {
			batched *tensor.Matrix
			seq     []*tensor.Matrix
			msgs    [2]int64
		}
		results, err := RunCollect(2, func(c *Comm) (result, error) {
			plan := twoRankPlan(c.Rank())
			FinalizePlan(c, plan)
			ex, err := NewExchanger(mode, plan)
			if err != nil {
				return result{}, err
			}
			rng := rand.New(rand.NewSource(int64(c.Rank()) + 3))
			// Stacked input: batch row-blocks of 3 local rows.
			src := tensor.New(batch*3, 2)
			for i := range src.Data {
				src.Data[i] = rng.NormFloat64()
			}
			halo := tensor.New(batch*2, 2)
			before := c.Stats.MessagesSent
			ex.Exchange(c, Forward, src, halo, batch)
			batchedMsgs := c.Stats.MessagesSent - before

			// Sequential reference: one batch-1 exchange per sample.
			seq := make([]*tensor.Matrix, batch)
			var seqMsgs int64
			for b := 0; b < batch; b++ {
				seq[b] = tensor.New(2, 2)
				before = c.Stats.MessagesSent
				ex.Exchange(c, Forward, src.RowBlock(b*3, (b+1)*3), seq[b], 1)
				seqMsgs = c.Stats.MessagesSent - before
			}
			return result{batched: halo, seq: seq, msgs: [2]int64{batchedMsgs, seqMsgs}}, nil
		})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		for r, res := range results {
			for b := 0; b < batch; b++ {
				got := res.batched.RowBlock(b*2, (b+1)*2)
				if !got.Equal(res.seq[b]) {
					t.Fatalf("%v: rank %d sample %d differs: %v vs %v",
						mode, r, b, got.Data, res.seq[b].Data)
				}
			}
			if res.msgs[0] != res.msgs[1] {
				t.Fatalf("%v: rank %d batched exchange sent %d messages, unbatched %d — message count must be batch-invariant",
					mode, r, res.msgs[0], res.msgs[1])
			}
		}
	}
}

// Malformed batch shapes must be rejected before anything hits the wire,
// in either direction and in every mode (NoExchange included): the one
// Start makes the check the batched variants alone used to make.
func TestHaloExchangeBatchValidation(t *testing.T) {
	_, err := RunCollect(2, func(c *Comm) (struct{}, error) {
		plan := twoRankPlan(c.Rank())
		FinalizePlan(c, plan)
		for _, mode := range []ExchangeMode{NoExchange, NeighborAllToAll} {
			ex, err := NewExchanger(mode, plan)
			if err != nil {
				return struct{}{}, err
			}
			for _, dir := range []Direction{Forward, Adjoint} {
				for _, bad := range []struct{ rows, batch int }{{3, 2}, {3, 0}, {3, -1}} {
					panicked := false
					func() {
						defer func() { panicked = recover() != nil }()
						ex.Start(c, dir, tensor.New(bad.rows, 2), tensor.New(2, 2), bad.batch)
					}()
					if !panicked {
						return struct{}{}, errTest
					}
				}
			}
			// A rejected Start leaves nothing in flight.
			ex.Exchange(c, Forward, tensor.New(3, 2), tensor.New(2, 2), 1)
		}
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
