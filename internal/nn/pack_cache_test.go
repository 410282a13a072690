package nn

import (
	"math"
	"math/rand"
	"testing"

	"meshgnn/internal/tensor"
)

// linearRef computes x·W + b through the unpacked kernels — the bitwise
// oracle for the training forward's packed-panel cache.
func linearRef(l *Linear, x *tensor.Matrix) *tensor.Matrix {
	want := tensor.New(x.Rows, l.Out)
	tensor.MatMul(want, x, l.Weight.W)
	tensor.AddRowVectorRows(want, l.Bias.W.Data, 0, want.Rows)
	return want
}

func bitsEqual(t *testing.T, got, want *tensor.Matrix, what string) {
	t.Helper()
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: value %d is %v, want %v (bitwise)", what, i, got.Data[i], want.Data[i])
		}
	}
}

// TestLinearPackedForwardParity: above the packed threshold the training
// forward serves from cached panels, bitwise-identical to the unpacked
// kernels, and an epoch of forwards between optimizer steps packs
// exactly once (the cached panel object is reused, not rebuilt).
func TestLinearPackedForwardParity(t *testing.T) {
	if !tensor.ShouldPack(32, 32) {
		t.Skip("packed GEMM tier disabled at this shape")
	}
	rng := rand.New(rand.NewSource(1))
	l := NewLinear("t", 32, 32, rng)
	x := tensor.New(40, 32)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	y := l.Forward(x).Clone()
	bitsEqual(t, y, linearRef(l, x), "packed forward")
	if l.pw.pb == nil {
		t.Fatal("forward above the packed threshold cached no panels")
	}
	pw := l.pw.pb
	for i := 0; i < 3; i++ {
		l.Forward(x)
	}
	if l.pw.pb != pw {
		t.Fatal("repeated forwards with unchanged parameters rebuilt the panel cache")
	}
}

// TestLinearPackCacheInvalidation: an optimizer step bumps the parameter
// version, and the next forward repacks — serving the updated weights,
// bitwise-identical to the unpacked kernels on the new values.
func TestLinearPackCacheInvalidation(t *testing.T) {
	if !tensor.ShouldPack(32, 32) {
		t.Skip("packed GEMM tier disabled at this shape")
	}
	rng := rand.New(rand.NewSource(2))
	l := NewLinear("t", 32, 32, rng)
	x := tensor.New(24, 32)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	l.Forward(x)
	ver := l.Weight.Version()

	// A real optimizer step: gradients in, weights mutated, version bumped.
	for i := range l.Weight.G.Data {
		l.Weight.G.Data[i] = rng.NormFloat64()
	}
	NewAdam(0.1).Step(l.Params())
	if l.Weight.Version() == ver {
		t.Fatal("optimizer step did not bump the parameter version")
	}
	y := l.Forward(x).Clone()
	bitsEqual(t, y, linearRef(l, x), "forward after optimizer step")

	// Direct writes follow the documented contract: mutate W.Data, Bump.
	l.Weight.W.Data[0] += 0.5
	l.Weight.Bump()
	y = l.Forward(x).Clone()
	bitsEqual(t, y, linearRef(l, x), "forward after direct write + Bump")
}

// TestLinearBelowThresholdSkipsPack: small layers stay on the plain
// kernels and never pay for panel storage.
func TestLinearBelowThresholdSkipsPack(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	l := NewLinear("t", 4, 4, rng)
	x := tensor.New(10, 4)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	y := l.Forward(x).Clone()
	bitsEqual(t, y, linearRef(l, x), "small forward")
	if l.pw.pb != nil {
		t.Fatal("below-threshold layer cached packed panels")
	}
}
