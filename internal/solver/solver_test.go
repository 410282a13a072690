package solver

import (
	"math"
	"testing"

	"meshgnn/internal/comm"
	"meshgnn/internal/field"
	"meshgnn/internal/graph"
	"meshgnn/internal/mesh"
	"meshgnn/internal/partition"
	"meshgnn/internal/tensor"
)

func setup(t *testing.T, box *mesh.Box, r int) []*graph.Local {
	t.Helper()
	strat := partition.Blocks
	if r == 1 {
		strat = partition.Slabs
	}
	part, err := partition.NewCartesian(box, r, strat)
	if err != nil {
		t.Fatal(err)
	}
	locals, err := graph.BuildAll(box, part)
	if err != nil {
		t.Fatal(err)
	}
	return locals
}

// initialField seeds a smooth scalar from the node coordinates.
func initialField(g *graph.Local) *tensor.Matrix {
	u := tensor.New(g.NumLocal(), 1)
	for i := 0; i < g.NumLocal(); i++ {
		x, y, z := g.Coords.At(i, 0), g.Coords.At(i, 1), g.Coords.At(i, 2)
		u.Data[i] = math.Sin(2*math.Pi*x) * math.Cos(2*math.Pi*y) * math.Cos(2*math.Pi*z)
	}
	return u
}

// runTrajectory advances nsteps and returns the assembled global field
// (by global ID) from rank 0 plus the final energy.
func runTrajectory(t *testing.T, box *mesh.Box, r int, mode comm.ExchangeMode, nsteps int) ([]float64, float64) {
	t.Helper()
	locals := setup(t, box, r)
	type out struct {
		u      []float64 // (gid, value) pairs flattened
		energy float64
	}
	results, err := comm.RunCollect(r, func(c *comm.Comm) (out, error) {
		d, err := NewDiffusion(c, box, locals[c.Rank()], mode, 0.5, 0.5)
		if err != nil {
			return out{}, err
		}
		u := initialField(d.g)
		d.Run(u, nsteps, nil)
		e := d.Energy(u)
		flat := make([]float64, 0, 2*u.Rows)
		for i := 0; i < u.Rows; i++ {
			flat = append(flat, float64(d.g.GlobalIDs[i]), u.Data[i])
		}
		return out{u: flat, energy: e}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	global := make([]float64, box.NumNodes())
	for _, o := range results {
		for i := 0; i < len(o.u); i += 2 {
			global[int(o.u[i])] = o.u[i+1]
		}
	}
	return global, results[0].energy
}

func TestDiffusionValidation(t *testing.T) {
	box, _ := mesh.NewBox(2, 2, 2, 1, [3]bool{})
	locals := setup(t, box, 1)
	err := comm.Run(1, func(c *comm.Comm) error {
		if _, err := NewDiffusion(c, box, locals[0], comm.NoExchange, -1, 0.1); err == nil {
			t.Error("expected error for negative alpha")
		}
		if _, err := NewDiffusion(c, box, locals[0], comm.NoExchange, 4, 0.5); err == nil {
			t.Error("expected error for unstable step")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDiffusionPreservesConstants(t *testing.T) {
	box, _ := mesh.NewBox(3, 3, 3, 2, [3]bool{true, true, true})
	locals := setup(t, box, 1)
	err := comm.Run(1, func(c *comm.Comm) error {
		d, err := NewDiffusion(c, box, locals[0], comm.NoExchange, 0.8, 0.5)
		if err != nil {
			return err
		}
		u := tensor.New(d.g.NumLocal(), 1)
		for i := range u.Data {
			u.Data[i] = 3.25
		}
		d.Run(u, 10, nil)
		for i, v := range u.Data {
			if math.Abs(v-3.25) > 1e-12 {
				t.Errorf("node %d drifted to %v", i, v)
				break
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDiffusionDissipatesEnergyAndMaxPrinciple(t *testing.T) {
	box, _ := mesh.NewBox(4, 4, 4, 2, [3]bool{true, true, true})
	locals := setup(t, box, 1)
	err := comm.Run(1, func(c *comm.Comm) error {
		d, err := NewDiffusion(c, box, locals[0], comm.NoExchange, 1, 0.5)
		if err != nil {
			return err
		}
		u := initialField(d.g)
		e0, m0 := d.Energy(u), d.MaxAbs(u)
		prevE, prevM := e0, m0
		d.Run(u, 20, func(step int, u *tensor.Matrix) {
			e, m := d.Energy(u), d.MaxAbs(u)
			if e > prevE+1e-12 {
				t.Errorf("step %d: energy grew %v -> %v", step, prevE, e)
			}
			if m > prevM+1e-12 {
				t.Errorf("step %d: max principle violated %v -> %v", step, prevM, m)
			}
			prevE, prevM = e, m
		})
		if prevE >= 0.5*e0 {
			t.Errorf("too little dissipation: %v -> %v", e0, prevE)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Mean conservation is exact on a uniform lattice (p=1, periodic), where
// the mass is constant and the update stencil is symmetric.
func TestDiffusionConservesMeanUniform(t *testing.T) {
	box, _ := mesh.NewBox(4, 4, 4, 1, [3]bool{true, true, true})
	locals := setup(t, box, 1)
	err := comm.Run(1, func(c *comm.Comm) error {
		d, err := NewDiffusion(c, box, locals[0], comm.NoExchange, 1, 0.3)
		if err != nil {
			return err
		}
		u := initialField(d.g)
		m0 := d.Mean(u)
		d.Run(u, 25, nil)
		if math.Abs(d.Mean(u)-m0) > 1e-12 {
			t.Errorf("mean drifted %v -> %v", m0, d.Mean(u))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// The headline property: the partitioned trajectory equals the
// unpartitioned one — the solver is consistent in the paper's Eq. 2
// sense because it reuses the same degree-scaled aggregation and halo
// exchange.
func TestDiffusionPartitionConsistency(t *testing.T) {
	box, _ := mesh.NewBox(4, 4, 2, 2, [3]bool{true, false, false})
	ref, erefEnergy := runTrajectory(t, box, 1, comm.NeighborAllToAll, 15)
	for _, r := range []int{2, 4, 8} {
		for _, mode := range []comm.ExchangeMode{comm.NeighborAllToAll, comm.AllToAllMode} {
			got, energy := runTrajectory(t, box, r, mode, 15)
			var maxDiff float64
			for i := range ref {
				if d := math.Abs(got[i] - ref[i]); d > maxDiff {
					maxDiff = d
				}
			}
			if maxDiff > 1e-12 {
				t.Fatalf("R=%d mode %v: trajectory deviates by %g", r, mode, maxDiff)
			}
			if math.Abs(energy-erefEnergy) > 1e-12*(1+erefEnergy) {
				t.Fatalf("R=%d mode %v: energy %v vs %v", r, mode, energy, erefEnergy)
			}
		}
	}
}

// Without halo exchange the partitioned solver must diverge from the
// reference — the same inconsistency the GNN's None mode exhibits.
func TestDiffusionInconsistentWithoutExchange(t *testing.T) {
	box, _ := mesh.NewBox(4, 4, 2, 2, [3]bool{true, false, false})
	ref, _ := runTrajectory(t, box, 1, comm.NeighborAllToAll, 10)
	got, _ := runTrajectory(t, box, 4, comm.NoExchange, 10)
	var maxDiff float64
	for i := range ref {
		if d := math.Abs(got[i] - ref[i]); d > maxDiff {
			maxDiff = d
		}
	}
	if maxDiff < 1e-9 {
		t.Fatalf("no-exchange trajectory unexpectedly consistent (%g)", maxDiff)
	}
}

// Against the analytic solution: on a periodic cube, the mode
// sin(2πx)cos(2πy)cos(2πz) is an eigenfunction of the Laplacian, so the
// field decays uniformly; verify the numerical decay factor is uniform
// across nodes (shape preservation).
func TestDiffusionShapePreservation(t *testing.T) {
	box, _ := mesh.NewBox(6, 6, 6, 1, [3]bool{true, true, true})
	locals := setup(t, box, 1)
	err := comm.Run(1, func(c *comm.Comm) error {
		d, err := NewDiffusion(c, box, locals[0], comm.NoExchange, 1, 0.2)
		if err != nil {
			return err
		}
		u0 := initialField(d.g)
		u := u0.Clone()
		d.Run(u, 5, nil)
		// Estimate the decay factor from the largest-amplitude node and
		// verify all significant nodes share it.
		var factor float64
		for i, v0 := range u0.Data {
			if math.Abs(v0) > 0.5 {
				factor = u.Data[i] / v0
				break
			}
		}
		if factor <= 0 || factor >= 1 {
			t.Fatalf("decay factor %v out of (0,1)", factor)
		}
		for i, v0 := range u0.Data {
			if math.Abs(v0) < 0.1 {
				continue
			}
			if f := u.Data[i] / v0; math.Abs(f-factor) > 1e-6 {
				t.Fatalf("node %d decay %v, expected uniform %v", i, f, factor)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSampleFromFieldIntegration(t *testing.T) {
	// The solver's initial condition can come from the field package,
	// closing the loop with the GNN data path.
	box, _ := mesh.NewBox(3, 3, 3, 1, [3]bool{true, true, true})
	locals := setup(t, box, 1)
	err := comm.Run(1, func(c *comm.Comm) error {
		d, err := NewDiffusion(c, box, locals[0], comm.NoExchange, 0.5, 0.4)
		if err != nil {
			return err
		}
		x := field.Sample(field.GaussianPulse{Amplitude: 1, Sigma0: 0.2, Alpha: 0.05,
			Cx: 0.5, Cy: 0.5, Cz: 0.5}, d.g, 0)
		u := tensor.New(d.g.NumLocal(), 1)
		for i := 0; i < x.Rows; i++ {
			u.Data[i] = x.At(i, 0)
		}
		peak0 := d.MaxAbs(u)
		d.Run(u, 10, nil)
		if d.MaxAbs(u) >= peak0 {
			t.Error("pulse peak did not diffuse")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func BenchmarkDiffusionStep(b *testing.B) {
	box, _ := mesh.NewBox(8, 8, 8, 3, [3]bool{true, true, true})
	part, _ := partition.NewCartesian(box, 1, partition.Slabs)
	locals, _ := graph.BuildAll(box, part)
	err := comm.Run(1, func(c *comm.Comm) error {
		d, err := NewDiffusion(c, box, locals[0], comm.NoExchange, 1, 0.5)
		if err != nil {
			return err
		}
		u := initialField(d.g)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.Step(u)
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}
