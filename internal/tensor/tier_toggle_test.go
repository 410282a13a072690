package tensor_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"meshgnn/internal/nn"
	"meshgnn/internal/tensor"
)

// TestCompiledPanelsAcrossTierToggle: a compiled block packs its weight
// panels once, at the width of the kernel tier it was compiled on. Between
// the two SIMD rungs the width does not change and neither does a bit, so
// that toggle needs no recompile — of the float64 block or of its float32
// twin, whose panels are 16 wide on both. A toggle that changes the width
// (pure Go packs 4 columns, both SIMD rungs 8) leaves the compile stale: it
// must refuse rather than answer in the other tier's bits, and a fresh
// Compile on the new tier must be bitwise the training forward there.
func TestCompiledPanelsAcrossTierToggle(t *testing.T) {
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
	agree := func(when string, want *tensor.Matrix) {
		t.Helper()
		got := compiled.InferForward(nil, x)
		for i := range want.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
				t.Fatalf("%s: value %d is %v, want %v (bitwise)", when, i, got.Data[i], want.Data[i])
			}
		}
	}
	asCompiled := m.Forward(x).Clone()
	agree("as compiled", asCompiled)

	compiled32, x32 := m.Compile32(), tensor.Demote32(x)
	asCompiled32 := compiled32.InferForward32(nil, x32)
	agree32 := func(when string) {
		t.Helper()
		got := compiled32.InferForward32(nil, x32)
		for i, want := range asCompiled32.Data {
			if math.Float32bits(got.Data[i]) != math.Float32bits(want) {
				t.Fatalf("float32 twin, %s: value %d is %v, want %v (bitwise)", when, i, got.Data[i], want)
			}
		}
	}

	if tensor.CPUTier() >= tensor.TierAVX512 {
		// avx512 -> avx2 and back: same panels, no recompile, same bits as
		// the top rung produced.
		prev := tensor.SetKernelTier(tensor.TierAVX2)
		if tensor.PackWidth() != 8 {
			t.Errorf("panel width %d on the avx2 rung, want 8", tensor.PackWidth())
		}
		agree("lowered to avx2 without a recompile", asCompiled)
		agree("training forward on avx2", m.Forward(x))
		agree32("lowered to avx2 without a recompile")
		tensor.SetKernelTier(prev)
		agree("back on avx512 without a recompile", asCompiled)
		agree32("back on avx512 without a recompile")
	} else {
		t.Logf("avx512 <-> avx2 toggle not run: this CPU's top rung is %v", tensor.CPUTier())
	}

	for _, k := range []tensor.KernelTier{tensor.TierGo, tensor.CPUTier()} {
		prev := tensor.SetKernelTier(k)
		defer tensor.SetKernelTier(prev)
		func() {
			// Stale panels must refuse, not answer in the other tier's bits.
			defer func() {
				if recover() == nil {
					t.Errorf("tier %v: evaluation on panels of the other width did not panic", k)
				}
			}()
			compiled.InferForward(nil, x)
		}()
		compiled = m.Compile()
		agree(fmt.Sprintf("fresh compile on tier %v", k), m.Forward(x))
	}
}
