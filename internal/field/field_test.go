package field

import (
	"math"
	"testing"
	"testing/quick"

	"meshgnn/internal/graph"
	"meshgnn/internal/mesh"
)

func tgv() TaylorGreen { return TaylorGreen{V0: 1, L: 1, Nu: 0.01} }

func TestTaylorGreenDivergenceFree(t *testing.T) {
	f := tgv()
	pts := [][4]float64{
		{0.1, 0.2, 0.3, 0}, {0.7, 0.9, 0.5, 0.2}, {0.33, 0.11, 0.95, 1.5},
	}
	for _, p := range pts {
		if d := Divergence(f, p[0], p[1], p[2], p[3], 1e-5); math.Abs(d) > 1e-6 {
			t.Fatalf("divergence %v at %v", d, p)
		}
	}
}

func TestTaylorGreenPeriodicity(t *testing.T) {
	f := tgv()
	u1, v1, w1 := f.Eval(0.13, 0.27, 0.81, 0.5)
	u2, v2, w2 := f.Eval(0.13+1, 0.27-1, 0.81+2, 0.5)
	if math.Abs(u1-u2) > 1e-12 || math.Abs(v1-v2) > 1e-12 || math.Abs(w1-w2) > 1e-12 {
		t.Fatalf("not periodic: (%v,%v,%v) vs (%v,%v,%v)", u1, v1, w1, u2, v2, w2)
	}
}

func TestTaylorGreenDecay(t *testing.T) {
	f := tgv()
	u0, _, _ := f.Eval(0.2, 0.1, 0.05, 0)
	u1, _, _ := f.Eval(0.2, 0.1, 0.05, 5)
	if math.Abs(u1) >= math.Abs(u0) {
		t.Fatalf("no viscous decay: %v -> %v", u0, u1)
	}
	// Exact decay rate: exp(-2 nu k^2 t).
	k := 2 * math.Pi
	want := u0 * math.Exp(-2*0.01*k*k*5)
	if math.Abs(u1-want) > 1e-12 {
		t.Fatalf("decay %v, want %v", u1, want)
	}
}

// Property: TGV divergence vanishes at random points and times.
func TestTaylorGreenDivergenceProperty(t *testing.T) {
	f := tgv()
	check := func(xr, yr, zr, tr uint16) bool {
		x := float64(xr) / 65535
		y := float64(yr) / 65535
		z := float64(zr) / 65535
		tt := float64(tr) / 65535 * 3
		return math.Abs(Divergence(f, x, y, z, tt, 1e-5)) < 1e-6
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSampleShapeAndConsistency(t *testing.T) {
	box, err := mesh.NewBox(2, 2, 2, 2, [3]bool{true, true, true})
	if err != nil {
		t.Fatal(err)
	}
	l, err := graph.BuildSingle(box)
	if err != nil {
		t.Fatal(err)
	}
	x := Sample(tgv(), l, 0.1)
	if x.Rows != l.NumLocal() || x.Cols != 3 {
		t.Fatalf("sample %dx%d", x.Rows, x.Cols)
	}
	// Node 0 must match a direct evaluation.
	u, v, w := tgv().Eval(l.Coords.At(0, 0), l.Coords.At(0, 1), l.Coords.At(0, 2), 0.1)
	if x.At(0, 0) != u || x.At(0, 1) != v || x.At(0, 2) != w {
		t.Fatal("sample disagrees with direct evaluation")
	}
}

func TestShearLayerStructure(t *testing.T) {
	s := ShearLayer{U0: 1, Thickness: 0.05, Perturbation: 0.01, L: 1}
	// Far sides of the layer stream in opposite directions.
	uTop, _, _ := s.Eval(0.5, 0.9, 0.5, 0)
	uBot, _, _ := s.Eval(0.5, 0.1, 0.5, 0)
	if uTop <= 0 || uBot >= 0 {
		t.Fatalf("shear layer directions: top %v bottom %v", uTop, uBot)
	}
	// Perturbation is active near the centerline.
	_, vMid, _ := s.Eval(0.25, 0.5, 0.5, 0)
	if vMid == 0 {
		t.Fatal("no cross-stream perturbation")
	}
}

func TestGaussianPulseSpreadsAndDecays(t *testing.T) {
	g := GaussianPulse{Amplitude: 1, Sigma0: 0.1, Alpha: 0.05, Cx: 0.5, Cy: 0.5, Cz: 0.5}
	center0, _, _ := g.Eval(0.5, 0.5, 0.5, 0)
	center1, _, _ := g.Eval(0.5, 0.5, 0.5, 1)
	if center1 >= center0 {
		t.Fatalf("pulse peak must decay: %v -> %v", center0, center1)
	}
	// Off-center value eventually rises as heat arrives.
	off0, _, _ := g.Eval(0.8, 0.5, 0.5, 0)
	off1, _, _ := g.Eval(0.8, 0.5, 0.5, 1)
	if off1 <= off0 {
		t.Fatalf("heat must spread outward: %v -> %v", off0, off1)
	}
	// Gradient points toward the center (negative along +x offset).
	_, gx, _ := g.Eval(0.8, 0.5, 0.5, 0.5)
	if gx >= 0 {
		t.Fatalf("gradient sign wrong: %v", gx)
	}
}
