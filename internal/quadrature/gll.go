// Package quadrature computes Gauss–Legendre–Lobatto (GLL) quadrature
// nodes and weights on the reference interval [-1, 1].
//
// Spectral-element solvers such as NekRS place (p+1) GLL points along each
// direction of a hexahedral element of polynomial order p; the mesh-based
// GNN instantiates those quadrature points as graph nodes. The GLL nodes
// are the endpoints ±1 together with the roots of P'_p, the derivative of
// the Legendre polynomial of degree p. They cluster toward the element
// boundary, producing the non-uniform node spacing visible in the paper's
// Fig. 2.
package quadrature

import (
	"fmt"
	"math"
)

// Legendre evaluates the Legendre polynomial P_n and its derivative P'_n at
// x using the Bonnet three-term recurrence. It is numerically stable for
// the small orders (n <= ~50) used by spectral-element discretizations.
func Legendre(n int, x float64) (p, dp float64) {
	if n < 0 {
		panic(fmt.Sprintf("quadrature: negative Legendre order %d", n))
	}
	if n == 0 {
		return 1, 0
	}
	pm1, p := 1.0, x // P_0, P_1
	for k := 2; k <= n; k++ {
		pm1, p = p, (float64((float64(2*float64(k))-1)*x*p)-float64((float64(k)-1)*pm1))/float64(k)
	}
	// Derivative from the standard identity
	// (1-x^2) P'_n = n (P_{n-1} - x P_n), guarded at the endpoints.
	if x == 1 || x == -1 {
		dp = math.Pow(x, float64(n+1)) * float64(n) * float64(n+1) / 2
		return p, dp
	}
	dp = float64(n) * (pm1 - float64(x*p)) / (1 - float64(x*x))
	return p, dp
}

// Nodes returns the p+1 GLL nodes on [-1, 1] in increasing order for
// polynomial order p >= 1. The nodes are the extrema of P_p together with
// the interval endpoints, computed by Newton iteration from Chebyshev
// initial guesses.
func Nodes(p int) []float64 {
	if p < 1 {
		panic(fmt.Sprintf("quadrature: polynomial order must be >= 1, got %d", p))
	}
	n := p + 1
	x := make([]float64, n)
	x[0], x[n-1] = -1, 1
	for i := 1; i < n-1; i++ {
		// Chebyshev–Gauss–Lobatto guess, then Newton on P'_p = 0 using
		// the recurrence q = P'_p, q' from the Legendre ODE:
		// (1-x^2) P''_p = 2x P'_p - p(p+1) P_p.
		xi := -math.Cos(math.Pi * float64(i) / float64(p))
		for iter := 0; iter < 100; iter++ {
			pp, dpp := Legendre(p, xi)
			d2 := (float64(2*xi*dpp) - float64(float64(p)*float64(p+1)*pp)) / (1 - float64(xi*xi))
			step := dpp / d2
			xi -= step
			if math.Abs(step) < 1e-15 {
				break
			}
		}
		x[i] = xi
	}
	// Enforce exact symmetry: GLL nodes are symmetric about the origin.
	for i := 0; i < n/2; i++ {
		s := (x[n-1-i] - x[i]) / 2
		x[i], x[n-1-i] = -s, s
	}
	if n%2 == 1 {
		x[n/2] = 0
	}
	return x
}
