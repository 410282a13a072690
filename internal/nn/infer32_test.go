package nn

import (
	"math/rand"
	"testing"

	"meshgnn/internal/tensor"
)

// TestCompile32MatchesOracle gates the f32 serving twin against the f64
// compiled path: over MLP shapes that both engage and miss the packed
// GEMM tier, the relative error of the float32 forward must stay within
// what single-precision rounding through a few layers can produce.
func TestCompile32MatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, sh := range []struct {
		in, hidden, out, depth int
		norm                   bool
	}{
		{12, 96, 32, 2, true}, // packed-tier shapes
		{7, 24, 8, 1, false},  // below threshold: scalar f32 kernels
		{33, 64, 17, 0, true}, // odd widths, tail columns
	} {
		m := NewMLP("m", sh.in, sh.hidden, sh.out, sh.depth, sh.norm, rng)
		f64 := m.Compile()
		f32 := m.Compile32()

		x64 := tensor.New(37, sh.in)
		for i := range x64.Data {
			x64.Data[i] = rng.NormFloat64()
		}
		y64 := f64.InferForward(nil, x64)
		y32 := f32.InferForward32(nil, tensor.Demote32(x64))
		if rel := y32.MaxRelDiff64(y64); rel > 5e-4 {
			t.Errorf("shape %+v: f32 twin rel error %g vs f64 oracle", sh, rel)
		}
	}
}

// TestCompile32ArenaReplay pins the serving contract: a second forward
// through the same arena epoch allocates no new slots.
func TestCompile32ArenaReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := NewMLP("m", 12, 96, 32, 2, true, rng)
	f32 := m.Compile32()
	ar := tensor.NewArena32()
	x := tensor.New32(19, 12)
	for i := range x.Data {
		x.Data[i] = float32(rng.NormFloat64())
	}
	f32.InferForward32(ar, x)
	slots := ar.Slots()
	ar.Reset()
	out1 := f32.InferForward32(ar, x)
	if ar.Slots() != slots {
		t.Fatalf("replayed f32 forward grew the arena: %d -> %d slots", slots, ar.Slots())
	}
	ar.Reset()
	out2 := f32.InferForward32(ar, x)
	if out1 != out2 {
		t.Error("replayed forward returned a different workspace matrix")
	}
	for i := range out1.Data {
		if out1.Data[i] != out2.Data[i] {
			t.Fatal("f32 forward is not reproducible across arena epochs")
		}
	}
}

// TestCompile32Snapshot documents the down-conversion semantics: unlike
// Compile (which aliases parameters), Compile32 snapshots them, so a
// post-compile optimizer step must NOT leak into the twin.
func TestCompile32Snapshot(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := NewMLP("m", 4, 8, 4, 0, false, rng)
	f32 := m.Compile32()
	x := tensor.New32(3, 4)
	for i := range x.Data {
		x.Data[i] = float32(rng.NormFloat64())
	}
	before := f32.InferForward32(nil, x)
	for _, p := range m.Params() {
		for i := range p.W.Data {
			p.W.Data[i] += 1
		}
	}
	after := f32.InferForward32(nil, x)
	for i := range before.Data {
		if before.Data[i] != after.Data[i] {
			t.Fatal("Compile32 twin observed a post-compile parameter update")
		}
	}
}

// The polynomial-exponential accuracy and lockstep tests live with the
// kernels in internal/tensor (elu32_test.go).
