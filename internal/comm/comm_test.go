package comm

import (
	"math"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"meshgnn/internal/tensor"
)

func TestWorldSizeValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for size 0")
		}
	}()
	NewWorld(0)
}

func TestSendRecvRoundTrip(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, TagUser, []float64{1, 2, 3})
		} else {
			got := c.Recv(0, TagUser)
			if len(got) != 3 || got[2] != 3 {
				t.Errorf("recv = %v", got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendCopiesPayload(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			buf := []float64{1}
			c.Send(1, TagUser, buf)
			buf[0] = 999 // must not corrupt the in-flight message
		} else {
			if got := c.Recv(0, TagUser); got[0] != 1 {
				t.Errorf("payload mutated in flight: %v", got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendRecvInts(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			c.SendInts(1, TagSetup, []int64{7, 8})
		} else {
			got := c.RecvInts(0, TagSetup)
			if len(got) != 2 || got[1] != 8 {
				t.Errorf("RecvInts = %v", got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierOrdering(t *testing.T) {
	var before, after int32
	err := Run(8, func(c *Comm) error {
		atomic.AddInt32(&before, 1)
		c.Barrier()
		if atomic.LoadInt32(&before) != 8 {
			t.Error("barrier released before all ranks arrived")
		}
		atomic.AddInt32(&after, 1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if after != 8 {
		t.Fatalf("after = %d", after)
	}
}

func TestAllReduceSum(t *testing.T) {
	for _, size := range []int{1, 2, 5, 16} {
		results, err := RunCollect(size, func(c *Comm) ([]float64, error) {
			buf := []float64{float64(c.Rank() + 1), 1}
			c.AllReduceSum(buf)
			return buf, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		want := float64(size*(size+1)) / 2
		for r, buf := range results {
			if buf[0] != want || buf[1] != float64(size) {
				t.Fatalf("size %d rank %d: %v, want [%v %v]", size, r, buf, want, size)
			}
		}
	}
}

// Deterministic reductions: two runs with the same (ill-conditioned)
// inputs must agree bitwise.
func TestAllReduceSumDeterministic(t *testing.T) {
	run := func() []float64 {
		results, err := RunCollect(7, func(c *Comm) ([]float64, error) {
			rng := rand.New(rand.NewSource(int64(c.Rank())))
			buf := []float64{rng.NormFloat64() * math.Pow(10, float64(c.Rank()-3))}
			c.AllReduceSum(buf)
			return buf, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		out := make([]float64, len(results))
		for i, b := range results {
			out[i] = b[0]
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic AllReduce: %v vs %v", a[i], b[i])
		}
		if a[i] != a[0] {
			t.Fatalf("ranks disagree: %v", a)
		}
	}
}

func TestAllReduceMax(t *testing.T) {
	results, err := RunCollect(6, func(c *Comm) ([]float64, error) {
		buf := []float64{float64(-c.Rank()), float64(c.Rank())}
		c.AllReduceMax(buf)
		return buf, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, buf := range results {
		if buf[0] != 0 || buf[1] != 5 {
			t.Fatalf("AllReduceMax = %v", buf)
		}
	}
}

func TestRunCollectErrorPropagation(t *testing.T) {
	err := Run(3, func(c *Comm) error {
		if c.Rank() == 1 {
			return errTest
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
}

var errTest = &testError{}

type testError struct{}

func (*testError) Error() string { return "boom" }

// --- Halo exchange tests -------------------------------------------------

// twoRankPlan builds the symmetric plan for two ranks sharing two global
// nodes, following the paper's Fig. 4 layout: each rank has 3 local rows
// (rows 1,2 shared) and 2 halo rows appended at indices 3,4.
func twoRankPlan(rank int) *HaloPlan {
	other := 1 - rank
	return &HaloPlan{
		Neighbors: []int{other},
		SendIdx:   [][]int{{1, 2}},
		RecvIdx:   [][]int{{0, 1}}, // rows of the separate halo matrix
	}
}

func runHaloForward(t *testing.T, mode ExchangeMode) ([]*tensor.Matrix, []Stats) {
	t.Helper()
	type result struct {
		halo  *tensor.Matrix
		stats Stats
	}
	results, err := RunCollect(2, func(c *Comm) (result, error) {
		plan := twoRankPlan(c.Rank())
		FinalizePlan(c, plan)
		ex, err := NewExchanger(mode, plan)
		if err != nil {
			return result{}, err
		}
		local := tensor.New(3, 2)
		for i := 0; i < 3; i++ {
			local.Set(i, 0, float64(c.Rank()*10+i))
			local.Set(i, 1, float64(c.Rank()*10+i)+0.5)
		}
		halo := tensor.New(2, 2)
		ex.Exchange(c, Forward, local, halo, 1)
		return result{halo: halo, stats: c.Stats}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	halos := []*tensor.Matrix{results[0].halo, results[1].halo}
	stats := []Stats{results[0].stats, results[1].stats}
	return halos, stats
}

func TestHaloForwardAllModes(t *testing.T) {
	for _, mode := range []ExchangeMode{AllToAllMode, NeighborAllToAll} {
		halos, _ := runHaloForward(t, mode)
		// Rank 0's halo rows must hold rank 1's local rows 1,2 and vice versa.
		if halos[0].At(0, 0) != 11 || halos[0].At(1, 0) != 12 || halos[0].At(0, 1) != 11.5 {
			t.Fatalf("%v: rank 0 halo = %v", mode, halos[0].Data)
		}
		if halos[1].At(0, 0) != 1 || halos[1].At(1, 0) != 2 {
			t.Fatalf("%v: rank 1 halo = %v", mode, halos[1].Data)
		}
	}
}

// TestHaloTagsByDirection pins that a halo frame says which way it moves:
// rank 0 runs the forward exchange while rank 1 runs the adjoint, so each
// receives a frame of the other direction, and the receive must refuse it
// on the tag instead of scattering gradients into activations (or the
// reverse) without an error.
func TestHaloTagsByDirection(t *testing.T) {
	for _, mode := range []ExchangeMode{AllToAllMode, NeighborAllToAll} {
		for _, f := range fabrics {
			t.Run(mode.String()+"/"+f.name, func(t *testing.T) {
				err := f.run(2, nil, func(c *Comm) error {
					c.SetRecvTimeout(5 * time.Second)
					plan := twoRankPlan(c.Rank())
					FinalizePlan(c, plan)
					ex, err := NewExchanger(mode, plan)
					if err != nil {
						return err
					}
					local, halo := tensor.New(3, 2), tensor.New(2, 2)
					if c.Rank() == 0 {
						ex.Exchange(c, Forward, local, halo, 1)
					} else {
						ex.Exchange(c, Adjoint, halo, local, 1)
					}
					return nil
				})
				if err == nil || !strings.Contains(err.Error(), "expected tag") {
					t.Fatalf("mixed-direction exchange: want a tag mismatch, got %v", err)
				}
			})
		}
	}
}

func TestHaloNoExchangeLeavesHaloZero(t *testing.T) {
	halos, _ := runHaloForward(t, NoExchange)
	for r, h := range halos {
		for _, v := range h.Data {
			if v != 0 {
				t.Fatalf("rank %d: NoExchange modified halo: %v", r, h.Data)
			}
		}
	}
}

// The adjoint property: for the linear map F (halo forward exchange) and
// its adjoint F^T, <F(x), y> summed over ranks equals <x, F^T(y)>.
func TestHaloAdjointProperty(t *testing.T) {
	for _, mode := range []ExchangeMode{AllToAllMode, NeighborAllToAll} {
		vals, err := RunCollect(2, func(c *Comm) ([2]float64, error) {
			rng := rand.New(rand.NewSource(int64(c.Rank()) + 7))
			plan := twoRankPlan(c.Rank())
			FinalizePlan(c, plan)
			ex, err := NewExchanger(mode, plan)
			if err != nil {
				return [2]float64{}, err
			}
			x := tensor.New(3, 2)
			y := tensor.New(2, 2)
			for i := range x.Data {
				x.Data[i] = rng.NormFloat64()
			}
			for i := range y.Data {
				y.Data[i] = rng.NormFloat64()
			}
			fx := tensor.New(2, 2)
			ex.Exchange(c, Forward, x, fx, 1)
			fty := tensor.New(3, 2)
			ex.Exchange(c, Adjoint, y, fty, 1)
			return [2]float64{dot(fx, y), dot(x, fty)}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		var lhs, rhs float64
		for _, v := range vals {
			lhs += v[0]
			rhs += v[1]
		}
		if math.Abs(lhs-rhs) > 1e-12*(1+math.Abs(lhs)) {
			t.Fatalf("%v: adjoint identity violated: %v vs %v", mode, lhs, rhs)
		}
	}
}

// dot is the Frobenius inner product <a, b> of two equal-shape matrices.
func dot(a, b *tensor.Matrix) float64 {
	var s float64
	for i, v := range a.Data {
		s += v * b.Data[i]
	}
	return s
}

// Adjoint must accumulate (+=), not overwrite.
func TestHaloAdjointAccumulates(t *testing.T) {
	results, err := RunCollect(2, func(c *Comm) (*tensor.Matrix, error) {
		plan := twoRankPlan(c.Rank())
		ex, err := NewExchanger(NeighborAllToAll, plan)
		if err != nil {
			return nil, err
		}
		haloGrad := tensor.New(2, 1)
		haloGrad.Set(0, 0, 1)
		haloGrad.Set(1, 0, 2)
		srcGrad := tensor.New(3, 1)
		for i := range srcGrad.Data {
			srcGrad.Data[i] = 100
		}
		ex.Exchange(c, Adjoint, haloGrad, srcGrad, 1)
		return srcGrad, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, g := range results {
		if g.At(0, 0) != 100 || g.At(1, 0) != 101 || g.At(2, 0) != 102 {
			t.Fatalf("rank %d: adjoint did not accumulate: %v", r, g.Data)
		}
	}
}

// A2A must generate traffic to every rank; N-A2A only to true neighbors.
func TestHaloTrafficCounters(t *testing.T) {
	// 4 ranks in a line, each sharing one node with its ±1 neighbors.
	size := 4
	makePlan := func(rank int) *HaloPlan {
		p := &HaloPlan{}
		halo := 0
		for _, nb := range []int{rank - 1, rank + 1} {
			if nb >= 0 && nb < size {
				p.Neighbors = append(p.Neighbors, nb)
				p.SendIdx = append(p.SendIdx, []int{0})
				p.RecvIdx = append(p.RecvIdx, []int{halo})
				halo++
			}
		}
		return p
	}
	count := func(mode ExchangeMode) []Stats {
		stats, err := RunCollect(size, func(c *Comm) (Stats, error) {
			plan := makePlan(c.Rank())
			FinalizePlan(c, plan)
			base := c.Stats // setup traffic (FinalizePlan) excluded below
			ex, err := NewExchanger(mode, plan)
			if err != nil {
				return Stats{}, err
			}
			local := tensor.New(1, 3)
			halo := tensor.New(len(plan.Neighbors), 3)
			ex.Exchange(c, Forward, local, halo, 1)
			s := c.Stats
			s.MessagesSent -= base.MessagesSent
			s.FloatsSent -= base.FloatsSent
			return s, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	a2a := count(AllToAllMode)
	na2a := count(NeighborAllToAll)
	// Interior rank 1: A2A sends to all 3 other ranks, N-A2A to 2 neighbors.
	if a2a[1].MessagesSent != 3 {
		t.Fatalf("A2A messages = %d, want 3", a2a[1].MessagesSent)
	}
	if na2a[1].MessagesSent != 2 {
		t.Fatalf("N-A2A messages = %d, want 2", na2a[1].MessagesSent)
	}
	if a2a[1].FloatsSent <= na2a[1].FloatsSent {
		t.Fatalf("A2A volume %d must exceed N-A2A volume %d",
			a2a[1].FloatsSent, na2a[1].FloatsSent)
	}
}

func TestNewExchangerValidation(t *testing.T) {
	if _, err := NewExchanger(NeighborAllToAll, &HaloPlan{
		Neighbors: []int{1},
		SendIdx:   [][]int{{0}},
		RecvIdx:   [][]int{{0, 1}},
	}); err == nil {
		t.Fatal("expected error for asymmetric plan")
	}
	if _, err := NewExchanger(AllToAllMode, &HaloPlan{
		Neighbors: []int{1},
		SendIdx:   [][]int{{0}},
		RecvIdx:   [][]int{{0}},
	}); err == nil {
		t.Fatal("expected error for A2A without FinalizePlan")
	}
}

func TestParseExchangeMode(t *testing.T) {
	for _, c := range []struct {
		s  string
		m  ExchangeMode
		ok bool
	}{
		{"none", NoExchange, true},
		{"a2a", AllToAllMode, true},
		{"N-A2A", NeighborAllToAll, true},
		{"sendrecv", 0, false},
		{"bogus", 0, false},
	} {
		m, err := ParseExchangeMode(c.s)
		if c.ok && (err != nil || m != c.m) {
			t.Fatalf("ParseExchangeMode(%q) = %v, %v", c.s, m, err)
		}
		if !c.ok && err == nil {
			t.Fatalf("ParseExchangeMode(%q) should fail", c.s)
		}
	}
	for _, m := range []ExchangeMode{NoExchange, AllToAllMode, NeighborAllToAll} {
		if m.String() == "" {
			t.Fatal("empty String()")
		}
	}
}

func BenchmarkAllReduce64k8Ranks(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		err := Run(8, func(c *Comm) error {
			buf := make([]float64, 65536/8)
			c.AllReduceSum(buf)
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// The exchanger must reuse its gather buffers: repeated exchanges on the
// same plan should not grow allocations linearly with call count.
func TestExchangerReusesBuffers(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		plan := twoRankPlan(c.Rank())
		ex, err := NewExchanger(NeighborAllToAll, plan)
		if err != nil {
			return err
		}
		local := tensor.New(3, 4)
		halo := tensor.New(2, 4)
		ex.Exchange(c, Forward, local, halo, 1) // warm the buffers
		if ex.packBuf == nil || cap(ex.packBuf[0]) == 0 {
			t.Error("pack buffer not retained")
		}
		first := &ex.packBuf[0][0]
		ex.Exchange(c, Forward, local, halo, 1)
		if &ex.packBuf[0][0] != first {
			t.Error("pack buffer reallocated on second exchange")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvTagMismatchFails(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, TagUser, []float64{1})
		} else {
			c.Recv(0, TagReduce) // wrong tag: must panic (captured by Run)
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected tag-mismatch error")
	}
}

func TestCommRankOutOfRangePanics(t *testing.T) {
	w := NewWorld(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	w.Transport(5)
}
