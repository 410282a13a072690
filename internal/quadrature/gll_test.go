package quadrature

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestLegendreKnownValues(t *testing.T) {
	cases := []struct {
		n    int
		x    float64
		p, d float64
	}{
		{0, 0.3, 1, 0},
		{1, 0.3, 0.3, 1},
		{2, 0.5, 0.5*3*0.25 - 0.5, 3 * 0.5}, // P2 = (3x^2-1)/2, P2' = 3x
		{3, -0.2, 0.5 * (5*-0.008 - 3*-0.2), 1.5 * (5*0.04 - 1)},
		{4, 1, 1, 10}, // P_n(1)=1, P'_n(1)=n(n+1)/2
		{5, -1, -1, 15},
	}
	for _, c := range cases {
		p, d := Legendre(c.n, c.x)
		if !almost(p, c.p, 1e-12) || !almost(d, c.d, 1e-12) {
			t.Fatalf("Legendre(%d,%v) = (%v,%v), want (%v,%v)", c.n, c.x, p, d, c.p, c.d)
		}
	}
}

func TestLegendreNegativeOrderPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Legendre(-1, 0)
}

func TestNodesKnownValues(t *testing.T) {
	// p=1: endpoints only.
	n1 := Nodes(1)
	if len(n1) != 2 || n1[0] != -1 || n1[1] != 1 {
		t.Fatalf("Nodes(1) = %v", n1)
	}
	// p=2: {-1, 0, 1}.
	n2 := Nodes(2)
	if len(n2) != 3 || !almost(n2[1], 0, 1e-14) {
		t.Fatalf("Nodes(2) = %v", n2)
	}
	// p=3: interior nodes at ±1/sqrt(5).
	n3 := Nodes(3)
	if !almost(n3[1], -1/math.Sqrt(5), 1e-12) || !almost(n3[2], 1/math.Sqrt(5), 1e-12) {
		t.Fatalf("Nodes(3) = %v", n3)
	}
	// p=4: interior nodes at 0, ±sqrt(3/7).
	n4 := Nodes(4)
	if !almost(n4[1], -math.Sqrt(3.0/7.0), 1e-12) || !almost(n4[2], 0, 1e-14) {
		t.Fatalf("Nodes(4) = %v", n4)
	}
	// p=5 (the production order used in the paper's scaling runs):
	// interior nodes at ±sqrt(1/3 ± 2 sqrt(7)/21).
	n5 := Nodes(5)
	in := math.Sqrt(1.0/3.0 - 2*math.Sqrt(7)/21)
	out := math.Sqrt(1.0/3.0 + 2*math.Sqrt(7)/21)
	if !almost(n5[2], -in, 1e-12) || !almost(n5[3], in, 1e-12) ||
		!almost(n5[1], -out, 1e-12) || !almost(n5[4], out, 1e-12) {
		t.Fatalf("Nodes(5) = %v", n5)
	}
}

func TestNodesSortedSymmetricBounded(t *testing.T) {
	for p := 1; p <= 16; p++ {
		xs := Nodes(p)
		if len(xs) != p+1 {
			t.Fatalf("p=%d: %d nodes", p, len(xs))
		}
		for i := 1; i < len(xs); i++ {
			if xs[i] <= xs[i-1] {
				t.Fatalf("p=%d: nodes not strictly increasing: %v", p, xs)
			}
		}
		for i := range xs {
			if xs[i]+xs[len(xs)-1-i] != 0 {
				t.Fatalf("p=%d: nodes not exactly symmetric: %v", p, xs)
			}
		}
		if xs[0] != -1 || xs[len(xs)-1] != 1 {
			t.Fatalf("p=%d: endpoints missing: %v", p, xs)
		}
	}
}

func TestNodesAreExtremaOfLegendre(t *testing.T) {
	for p := 2; p <= 12; p++ {
		xs := Nodes(p)
		for _, xi := range xs[1 : len(xs)-1] {
			_, dp := Legendre(p, xi)
			if math.Abs(dp) > 1e-9 {
				t.Fatalf("p=%d: P'_p(%v) = %v, want ~0", p, xi, dp)
			}
		}
	}
}

func TestWeightsSumToTwo(t *testing.T) {
	for p := 1; p <= 16; p++ {
		ws := weights(p)
		var s float64
		for _, w := range ws {
			s += w
		}
		if !almost(s, 2, 1e-12) {
			t.Fatalf("p=%d: weight sum = %v, want 2", p, s)
		}
		for _, w := range ws {
			if w <= 0 {
				t.Fatalf("p=%d: non-positive weight %v", p, w)
			}
		}
	}
}

// GLL quadrature with p+1 points integrates polynomials up to degree 2p-1
// exactly on [-1,1].
func TestQuadratureExactness(t *testing.T) {
	for p := 1; p <= 8; p++ {
		xs, ws := Nodes(p), weights(p)
		for deg := 0; deg <= 2*p-1; deg++ {
			var got float64
			for i, xi := range xs {
				got += ws[i] * math.Pow(xi, float64(deg))
			}
			var want float64
			if deg%2 == 0 {
				want = 2 / float64(deg+1)
			}
			if !almost(got, want, 1e-10) {
				t.Fatalf("p=%d deg=%d: integral %v, want %v", p, deg, got, want)
			}
		}
	}
}

func TestNodesOrderZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Nodes(0)
}

// Property: for random x in (-1,1), the Legendre recurrence satisfies the
// ODE (1-x^2) P”_n - 2x P'_n + n(n+1) P_n = 0 via a finite-difference
// check of P'.
func TestLegendreDerivativeProperty(t *testing.T) {
	f := func(nRaw uint8, xRaw uint16) bool {
		n := int(nRaw%10) + 1
		x := (float64(xRaw)/65535)*1.8 - 0.9
		h := 1e-6
		pPlus, _ := Legendre(n, x+h)
		pMinus, _ := Legendre(n, x-h)
		_, dp := Legendre(n, x)
		fd := (pPlus - pMinus) / (2 * h)
		return math.Abs(fd-dp) < 1e-5*(1+math.Abs(dp))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkNodesP5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Nodes(5)
	}
}

// weights returns the GLL quadrature weights matching Nodes(p):
// w_i = 2 / (p (p+1) [P_p(x_i)]^2).
func weights(p int) []float64 {
	xs := Nodes(p)
	w := make([]float64, len(xs))
	c := 2 / (float64(p) * float64(p+1))
	for i, xi := range xs {
		pp, _ := Legendre(p, xi)
		w[i] = c / (pp * pp)
	}
	return w
}
