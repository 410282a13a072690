package tensor_test

import (
	"math"
	"math/rand"
	"testing"

	"meshgnn/internal/nn"
	"meshgnn/internal/tensor"
)

// TestRepackAfterTierToggleReachesEveryHolder: a compiled block is held by
// pointer — by the engine that compiled it and by every serving session —
// so re-packing it after a kernel-tier toggle (the panel width changes with
// the tier) leaves no holder on panels of the old width. When sessions
// copied the panel pointers, a live one kept the stale panels.
func TestRepackAfterTierToggleReachesEveryHolder(t *testing.T) {
	if !tensor.SIMDEnabled() {
		t.Skip("one kernel tier only: nothing to toggle")
	}
	rng := rand.New(rand.NewSource(5))
	m := nn.NewMLP("t", 96, 32, 32, 2, true, rng) // every weight above the packed threshold
	x := tensor.New(200, 96)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	compiled := m.Compile()
	session := compiled // what gnn.Inference.Session holds
	agree := func(when string) {
		t.Helper()
		want, got := m.Forward(x), session.InferForward(nil, x)
		for i := range want.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
				t.Fatalf("%s: value %d is %v, want %v (bitwise)", when, i, got.Data[i], want.Data[i])
			}
		}
	}
	agree("as compiled")

	for _, simd := range []bool{false, true} {
		prev := tensor.SetSIMDGEMM(simd)
		defer tensor.SetSIMDGEMM(prev)
		func() {
			// Stale panels must refuse, not answer in the other tier's bits.
			defer func() {
				if recover() == nil {
					t.Errorf("simd=%v: evaluation on panels of the other tier's width did not panic", simd)
				}
			}()
			session.InferForward(nil, x)
		}()
		compiled.Repack()
		agree("after toggle and Repack")
	}
}
