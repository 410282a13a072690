package nn

import (
	"math"
	"math/rand"
	"testing"

	"meshgnn/internal/tensor"
)

func randInput(rng *rand.Rand, rows, cols int) *tensor.Matrix {
	m := tensor.New(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// scalarLoss is 0.5*||y||^2; its gradient w.r.t. y is y itself, giving a
// convenient pairing for finite-difference checks.
func scalarLoss(y *tensor.Matrix) float64 { return 0.5 * tensor.Dot(y, y) }

// checkLayerGradients verifies analytic parameter and input gradients of
// layer against central finite differences of scalarLoss(Forward(x)).
func checkLayerGradients(t *testing.T, layer Layer, x *tensor.Matrix, tol float64) {
	t.Helper()
	ZeroGrads(layer.Params())
	y := layer.Forward(x)
	dx := layer.Backward(y.Clone())

	const h = 1e-6
	// Input gradient.
	for i := range x.Data {
		orig := x.Data[i]
		x.Data[i] = orig + h
		lp := scalarLoss(layer.Forward(x))
		x.Data[i] = orig - h
		lm := scalarLoss(layer.Forward(x))
		x.Data[i] = orig
		fd := (lp - lm) / (2 * h)
		if math.Abs(fd-dx.Data[i]) > tol*(1+math.Abs(fd)) {
			t.Fatalf("input grad [%d]: analytic %v, fd %v", i, dx.Data[i], fd)
		}
	}
	// Parameter gradients.
	for _, p := range layer.Params() {
		for i := range p.W.Data {
			orig := p.W.Data[i]
			p.W.Data[i] = orig + h
			lp := scalarLoss(layer.Forward(x))
			p.W.Data[i] = orig - h
			lm := scalarLoss(layer.Forward(x))
			p.W.Data[i] = orig
			fd := (lp - lm) / (2 * h)
			if math.Abs(fd-p.G.Data[i]) > tol*(1+math.Abs(fd)) {
				t.Fatalf("%s grad [%d]: analytic %v, fd %v", p.Name, i, p.G.Data[i], fd)
			}
		}
	}
}

func TestLinearForwardKnown(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewLinear("l", 2, 2, rng)
	copy(l.Weight.W.Data, []float64{1, 2, 3, 4})
	copy(l.Bias.W.Data, []float64{10, 20})
	x := tensor.FromSlice(1, 2, []float64{1, 1})
	y := l.Forward(x)
	if y.At(0, 0) != 14 || y.At(0, 1) != 26 {
		t.Fatalf("y = %v", y.Data)
	}
}

func TestLinearGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	l := NewLinear("l", 4, 3, rng)
	checkLayerGradients(t, l, randInput(rng, 5, 4), 1e-5)
}

func TestLinearGradAccumulates(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	l := NewLinear("l", 2, 2, rng)
	x := randInput(rng, 3, 2)
	y := l.Forward(x)
	l.Backward(y.Clone())
	first := l.Weight.G.Clone()
	l.Forward(x)
	l.Backward(y.Clone())
	for i := range first.Data {
		if math.Abs(l.Weight.G.Data[i]-2*first.Data[i]) > 1e-12 {
			t.Fatal("weight gradient must accumulate across backward calls")
		}
	}
}

func TestELUForward(t *testing.T) {
	e := &ELU{}
	x := tensor.FromSlice(1, 3, []float64{-1, 0, 2})
	y := e.Forward(x)
	if y.Data[0] != tensor.Elu(-1) || math.Abs(y.Data[0]-math.Expm1(-1)) > 1e-15 || y.Data[1] != 0 || y.Data[2] != 2 {
		t.Fatalf("ELU = %v", y.Data)
	}
}

func TestELUGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	checkLayerGradients(t, &ELU{}, randInput(rng, 4, 6), 1e-5)
}

func TestLayerNormForwardNormalizes(t *testing.T) {
	ln := NewLayerNorm("ln", 8)
	rng := rand.New(rand.NewSource(5))
	x := randInput(rng, 3, 8)
	y := ln.Forward(x)
	for i := 0; i < y.Rows; i++ {
		var mu, varsum float64
		for _, v := range y.Row(i) {
			mu += v
		}
		mu /= 8
		for _, v := range y.Row(i) {
			varsum += (v - mu) * (v - mu)
		}
		if math.Abs(mu) > 1e-10 || math.Abs(varsum/8-1) > 1e-4 {
			t.Fatalf("row %d: mean %v var %v", i, mu, varsum/8)
		}
	}
}

func TestLayerNormGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	ln := NewLayerNorm("ln", 5)
	// Perturb gain/shift so gradients are non-trivial.
	for i := range ln.Gain.W.Data {
		ln.Gain.W.Data[i] = 1 + 0.3*rng.NormFloat64()
		ln.Shift.W.Data[i] = 0.2 * rng.NormFloat64()
	}
	checkLayerGradients(t, ln, randInput(rng, 4, 5), 1e-4)
}

func TestMLPStructureAndGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := NewMLP("m", 3, 8, 4, 2, true, rng)
	x := randInput(rng, 6, 3)
	y := m.Forward(x)
	if y.Rows != 6 || y.Cols != 4 {
		t.Fatalf("MLP output %dx%d", y.Rows, y.Cols)
	}
	checkLayerGradients(t, m, randInput(rng, 3, 3), 1e-4)
}

func TestMLPParamCountFormula(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	// in=3, H=8, out=8, h=2, norm: (3*8+8) + 2*(8*8+8) + (8*8+8) + 2*8 = 264.
	m := NewMLP("m", 3, 8, 8, 2, true, rng)
	if got := CountParams(m.Params()); got != 264 {
		t.Fatalf("params = %d, want 264", got)
	}
	// Decoder-style, no norm: in=8, H=8, out=3, h=2:
	// (8*8+8) + 2*(8*8+8) + (8*3+3) = 243.
	d := NewMLP("d", 8, 8, 3, 2, false, rng)
	if got := CountParams(d.Params()); got != 243 {
		t.Fatalf("decoder params = %d, want 243", got)
	}
}

func TestDeterministicInit(t *testing.T) {
	m1 := NewMLP("m", 4, 8, 4, 1, true, rand.New(rand.NewSource(42)))
	m2 := NewMLP("m", 4, 8, 4, 1, true, rand.New(rand.NewSource(42)))
	p1, p2 := m1.Params(), m2.Params()
	for i := range p1 {
		if !p1[i].W.Equal(p2[i].W) {
			t.Fatalf("param %s differs across identically seeded builds", p1[i].Name)
		}
	}
}

func TestFlattenUnflattenRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := NewMLP("m", 3, 4, 2, 1, true, rng)
	params := m.Params()
	for _, p := range params {
		for i := range p.G.Data {
			p.G.Data[i] = rng.NormFloat64()
		}
	}
	buf := FlattenGrads(params, nil)
	if len(buf) != CountParams(params) {
		t.Fatalf("flatten length %d", len(buf))
	}
	saved := make([]float64, len(buf))
	copy(saved, buf)
	ZeroGrads(params)
	UnflattenGrads(params, saved)
	again := FlattenGrads(params, nil)
	for i := range saved {
		if saved[i] != again[i] {
			t.Fatal("unflatten did not restore gradients")
		}
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimize (w-3)^2 with gradient 2(w-3).
	p := newParam("p", 1, 1)
	a := NewAdam(0.1)
	for i := 0; i < 500; i++ {
		p.G.Data[0] = 2 * (p.W.Data[0] - 3)
		a.Step([]*Param{p})
	}
	if math.Abs(p.W.Data[0]-3) > 1e-3 {
		t.Fatalf("Adam converged to %v, want 3", p.W.Data[0])
	}
}

func TestAdamFirstStepSize(t *testing.T) {
	// With bias correction, the first Adam step is ~lr regardless of
	// gradient magnitude.
	for _, g := range []float64{1e-4, 1, 1e4} {
		p := newParam("p", 1, 1)
		p.G.Data[0] = g
		NewAdam(0.01).Step([]*Param{p})
		if math.Abs(math.Abs(p.W.Data[0])-0.01) > 1e-6 {
			t.Fatalf("g=%v: first step %v, want ~0.01", g, p.W.Data[0])
		}
	}
}

func TestCopyParams(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a := NewMLP("a", 3, 4, 2, 1, true, rng)
	b := NewMLP("b", 3, 4, 2, 1, true, rng)
	CopyParams(b.Params(), a.Params())
	pa, pb := a.Params(), b.Params()
	for i := range pa {
		if !pa[i].W.Equal(pb[i].W) {
			t.Fatal("CopyParams mismatch")
		}
	}
}

func BenchmarkMLPForwardBackwardLarge(b *testing.B) {
	// Edge-update MLP of the "large" model on a 4096-edge batch.
	rng := rand.New(rand.NewSource(1))
	m := NewMLP("m", 96, 32, 32, 5, true, rng)
	x := randInput(rng, 4096, 96)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		y := m.Forward(x)
		m.Backward(y)
	}
}
