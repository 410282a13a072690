package comm

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"
)

// fabrics are the two ways the tests in this file run a rank world.
var fabrics = []struct {
	name string
	run  func(size int, wrap func(Transport) Transport, fn func(c *Comm) error) error
}{
	{"channel", RunWith},
	{"socket", RunSocketsWith},
}

// contribution is rank's deterministic input of length n: magnitudes
// spread over twelve decades, so the grouping of a floating-point sum
// shows in its low bits.
func contribution(rank, n int) []float64 {
	rng := rand.New(rand.NewSource(int64(1000*rank + n)))
	buf := make([]float64, n)
	for i := range buf {
		buf[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(12)-6))
	}
	return buf
}

// rootReduce is the reference both wire patterns (the two-rank swap, the
// gather on rank 0 beyond) must reproduce bit for bit: rank 0's buffer
// combined with every other contribution in ascending rank order — the
// grouping the golden loss files and the R-vs-1 gates were recorded with.
func rootReduce(contribs [][]float64, combine func(acc, v float64) float64) []float64 {
	acc := append([]float64(nil), contribs[0]...)
	for _, contrib := range contribs[1:] {
		for i, v := range contrib {
			acc[i] = combine(acc[i], v)
		}
	}
	return acc
}

func addFloats(a, v float64) float64 { return a + v }

func bitsDiffer(a, b []float64) bool {
	if len(a) != len(b) {
		return true
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return true
		}
	}
	return false
}

// TestCollectivesMatchRootOrderedReference holds every collective built
// on Comm.exchange to the root-ordered reference, on every rank, bitwise,
// across rank counts (both wire patterns), buffer lengths (empty, scalar,
// odd, past a socket buffer) and both fabrics.
func TestCollectivesMatchRootOrderedReference(t *testing.T) {
	lengths := []int{0, 1, 7, 2049, 91459}
	maxOf := func(a, v float64) float64 {
		if v > a {
			return v
		}
		return a
	}
	for _, size := range []int{1, 2, 3, 4, 8} {
		// Inputs and references are computed once, outside the ranks, which
		// only read them.
		type reference struct {
			contribs [][]float64
			sum, max []float64
		}
		refs := make([]reference, len(lengths))
		for k, n := range lengths {
			ref := &refs[k]
			for rank := 0; rank < size; rank++ {
				ref.contribs = append(ref.contribs, contribution(rank, n))
			}
			ref.sum = rootReduce(ref.contribs, addFloats)
			ref.max = rootReduce(ref.contribs, maxOf)
		}
		for _, fab := range fabrics {
			t.Run(fmt.Sprintf("R%d/%s", size, fab.name), func(t *testing.T) {
				err := fab.run(size, nil, func(c *Comm) error {
					for _, ref := range refs {
						mine := ref.contribs[c.Rank()]
						n := len(mine)
						got := append([]float64(nil), mine...)
						c.AllReduceSum(got)
						if bitsDiffer(got, ref.sum) {
							return fmt.Errorf("n=%d: AllReduceSum differs from the root-ordered sum", n)
						}
						copy(got, mine)
						c.AllReduceMax(got)
						if bitsDiffer(got, ref.max) {
							return fmt.Errorf("n=%d: AllReduceMax differs from the root-ordered max", n)
						}
						c.Barrier()
					}
					if want := int64(2 * len(lengths)); c.Stats.AllReduces != want {
						return fmt.Errorf("AllReduces = %d, want %d", c.Stats.AllReduces, want)
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestCollectiveLengthMismatchFailsLoudly gives the last rank a
// contribution one element short, under both wire patterns. No rank may
// come back with a result: rank 0 folds the short contribution whatever
// the pattern and must trip the shared length check, the others trip it
// too or see the failed rank go away.
func TestCollectiveLengthMismatchFailsLoudly(t *testing.T) {
	const n = 16
	collectives := map[string]func(c *Comm, buf []float64){
		"AllReduceSum": func(c *Comm, buf []float64) { c.AllReduceSum(buf) },
		"AllReduceMax": func(c *Comm, buf []float64) { c.AllReduceMax(buf) },
	}
	for name, collective := range collectives {
		for _, size := range []int{2, 3} {
			for _, fab := range fabrics {
				t.Run(fmt.Sprintf("%s/R%d/%s", name, size, fab.name), func(t *testing.T) {
					outcomes := make([]error, size)
					fab.run(size, nil, func(c *Comm) error {
						defer func() {
							if p := recover(); p != nil {
								outcomes[c.Rank()] = PanicError(p)
							}
						}()
						c.SetRecvTimeout(300 * time.Millisecond)
						buf := contribution(c.Rank(), n)
						if c.Rank() == size-1 {
							buf = buf[:n-1]
						}
						collective(c, buf)
						return nil
					})
					for r, err := range outcomes {
						mismatch := err != nil && strings.Contains(err.Error(), name+" length mismatch")
						if r == 0 && !mismatch {
							t.Errorf("rank 0: want a length-mismatch panic, got %v", err)
						}
						if !mismatch && !errors.Is(err, ErrPeerDown) && !errors.Is(err, ErrTimeout) {
							t.Errorf("rank %d: want a length-mismatch panic or a classified error, got %v", r, err)
						}
					}
				})
			}
		}
	}
}

// TestAllReduceSumSteadyStateZeroAlloc: a warmed AllReduceSum allocates
// nothing on either fabric under either wire pattern — the accumulator is
// grown once, the payloads circulate through the transports' pools.
// AllocsPerRun counts the whole process, so the other ranks' halves are
// inside the measurement.
func TestAllReduceSumSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	const n, warm, measured = 2049, 64, 100
	for _, size := range []int{2, 3} {
		for _, fab := range fabrics {
			t.Run(fmt.Sprintf("R%d/%s", size, fab.name), func(t *testing.T) {
				err := fab.run(size, nil, func(c *Comm) error {
					buf := contribution(c.Rank(), n)
					reduce := func() { c.AllReduceSum(buf) }
					// A rank can post its next send before the peer recycled the
					// previous payload; each such miss grows the circulating set
					// for good, so the warm-up is long enough for it to settle.
					for i := 0; i < warm; i++ {
						reduce()
					}
					if c.Rank() != 0 {
						for i := 0; i < measured; i++ {
							reduce()
						}
						return nil
					}
					defer debug.SetGCPercent(debug.SetGCPercent(-1))
					runtime.GC()
					if allocs := testing.AllocsPerRun(measured-1, reduce); allocs != 0 {
						return fmt.Errorf("warmed AllReduceSum allocates %v times per call", allocs)
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestFaultCollective pins the failure contract of the collectives under
// both wire patterns — two ranks waiting on each other, four waiting on
// rank 0 which waits on each of them: under a fault every rank comes back
// with either the bit-right sum or one classified error, the error within
// one receive deadline of entering the collective (a rank that timed out
// on its peers one after another would take two or more), and none hangs.
func TestFaultCollective(t *testing.T) {
	const n = 33
	const deadline = 500 * time.Millisecond
	cases := []struct {
		name string
		plan func(size int) *FaultPlan
		// failed reports whether the rank must fail; the others must hold
		// the right sum.
		failed func(size, rank int) bool
	}{
		{
			// The last rank dies on its first send: nobody ever hears from
			// it, so every survivor must give up — on it, or on the rank 0
			// that gave up on it.
			name: "peer death before its send",
			plan: func(size int) *FaultPlan {
				return NewFaultPlan().Add(size-1, FaultEvent{AfterOps: 0, Kind: FaultPanic, Peer: -1})
			},
			failed: func(int, int) bool { return true },
		},
		{
			// Rank 1's contribution to rank 0 is lost. Of two ranks, rank 1
			// still heard from rank 0 and holds the sum; of four, rank 0's
			// failure takes the result away from everyone.
			name: "one dropped send",
			plan: func(int) *FaultPlan {
				return NewFaultPlan().Add(1, FaultEvent{AfterOps: 0, Kind: FaultDropSend, Peer: 0})
			},
			failed: func(size, rank int) bool { return rank == 0 || size > 2 },
		},
	}
	for _, tc := range cases {
		for _, size := range []int{2, 4} {
			var contribs [][]float64
			for rank := 0; rank < size; rank++ {
				contribs = append(contribs, contribution(rank, n))
			}
			want := rootReduce(contribs, addFloats)
			for _, fab := range fabrics {
				t.Run(fmt.Sprintf("%s/R%d/%s", tc.name, size, fab.name), func(t *testing.T) {
					type outcome struct {
						err  error
						sum  []float64
						took time.Duration
					}
					outcomes := make([]outcome, size)
					done := make(chan struct{})
					go func() {
						defer close(done)
						fab.run(size, tc.plan(size).Wrap, func(c *Comm) error {
							o := &outcomes[c.Rank()]
							start := time.Now()
							defer func() {
								if p := recover(); p != nil {
									o.err = PanicError(p)
								}
								o.took = time.Since(start)
							}()
							c.SetRecvTimeout(deadline)
							o.sum = contribution(c.Rank(), n)
							c.AllReduceSum(o.sum)
							return nil
						})
					}()
					select {
					case <-done:
					case <-time.After(10 * time.Second):
						t.Fatal("a rank hung in the collective")
					}
					for r, o := range outcomes {
						if o.took >= 2*deadline {
							t.Errorf("rank %d took %v: more than one receive deadline of %v", r, o.took, deadline)
						}
						switch {
						case !tc.failed(size, r):
							if o.err != nil || bitsDiffer(o.sum, want) {
								t.Errorf("rank %d heard from every rank: want the reference sum, got err %v", r, o.err)
							}
						case r == size-1 && errors.Is(o.err, ErrFault):
							// the injected panic itself
						case !errors.Is(o.err, ErrPeerDown) && !errors.Is(o.err, ErrTimeout):
							t.Errorf("rank %d: want ErrPeerDown or ErrTimeout, got %v", r, o.err)
						}
					}
				})
			}
		}
	}
}
