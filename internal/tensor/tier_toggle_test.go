package tensor_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"meshgnn/internal/nn"
	"meshgnn/internal/tensor"
)

// TestCompiledPanelsAcrossTierToggle: every rung computes one float64
// arithmetic on the weights where they are, so a toggle to any rung — the
// go rung included — needs no recompile: the compile answers with the bits
// it answered with on the top rung, which are the training forward's
// there. The float32 twin reads its weights where they are too, and its
// two SIMD rungs compute one arithmetic, so it survives the toggle between
// them.
func TestCompiledPanelsAcrossTierToggle(t *testing.T) {
	if !tensor.SIMDEnabled() {
		t.Skip("one kernel tier only: nothing to toggle")
	}
	rng := rand.New(rand.NewSource(5))
	m := nn.NewMLP("t", 96, 32, 32, 2, true, rng)
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

	for k := tensor.CPUTier() - 1; k >= tensor.TierGo; k-- {
		prev := tensor.SetKernelTier(k)
		agree(fmt.Sprintf("lowered to %v without a recompile", k), asCompiled)
		agree(fmt.Sprintf("training forward on %v", k), m.Forward(x))
		if k >= tensor.TierAVX2 {
			agree32(fmt.Sprintf("lowered to %v without a recompile", k))
		}
		tensor.SetKernelTier(prev)
		agree(fmt.Sprintf("back from %v without a recompile", k), asCompiled)
		agree32(fmt.Sprintf("back from %v without a recompile", k))
	}
}
