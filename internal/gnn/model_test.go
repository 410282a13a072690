package gnn

import (
	"math"
	"testing"

	"meshgnn/internal/comm"
	"meshgnn/internal/graph"
	"meshgnn/internal/mesh"
	"meshgnn/internal/partition"
	"meshgnn/internal/tensor"
)

// singleRankSetup builds an R=1 context over a small mesh.
func singleRankSetup(t *testing.T, cfg Config) (*mesh.Box, *graph.Local) {
	t.Helper()
	box, err := mesh.NewBox(2, 2, 1, 1, [3]bool{})
	if err != nil {
		t.Fatal(err)
	}
	l, err := graph.BuildSingle(box)
	if err != nil {
		t.Fatal(err)
	}
	return box, l
}

// End-to-end analytic gradients vs central finite differences through the
// whole model (encoders, NMP layers with aggregation, decoder, consistent
// loss). Sampled over a subset of parameters from every block.
func TestModelGradientsFiniteDifference(t *testing.T) {
	cfg := tinyConfig()
	box, l := singleRankSetup(t, cfg)
	err := comm.Run(1, func(c *comm.Comm) error {
		rc, err := NewRankContext(c, box, l, comm.NeighborAllToAll)
		if err != nil {
			return err
		}
		model, err := NewModel(cfg)
		if err != nil {
			return err
		}
		x := waveField(rc.Graph)
		target := x.Clone()
		for i := range target.Data { // non-trivial residual
			target.Data[i] *= 0.7
		}

		var loss ConsistentMSE
		model.ZeroGrads()
		y := model.Forward(rc, x)
		loss.Forward(rc, y, target)
		model.Backward(loss.Backward())

		eval := func() float64 {
			y := model.Forward(rc, x)
			var l2 ConsistentMSE
			return l2.Forward(rc, y, target)
		}
		for _, p := range model.Params() {
			// Sample a few entries per parameter tensor.
			stride := len(p.W.Data)/3 + 1
			for i := 0; i < len(p.W.Data); i += stride {
				fd := richardsonFD(func(d float64) float64 {
					orig := p.W.Data[i]
					p.W.Data[i] = orig + d
					v := eval()
					p.W.Data[i] = orig
					return v
				})
				if math.Abs(fd-p.G.Data[i]) > 1e-6*(1+math.Abs(fd)) {
					t.Fatalf("%s[%d]: analytic %v, fd %v", p.Name, i, p.G.Data[i], fd)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Gradient check through a real halo exchange: R=2, perturb parameters on
// both ranks simultaneously (they are shared), compare the AllReduced
// analytic gradient against finite differences of the consistent loss.
func TestDistributedGradientsFiniteDifference(t *testing.T) {
	cfg := tinyConfig()
	box, err := mesh.NewBox(2, 2, 1, 1, [3]bool{})
	if err != nil {
		t.Fatal(err)
	}
	part, err := partition.NewCartesian(box, 2, partition.Slabs)
	if err != nil {
		t.Fatal(err)
	}
	locals, err := graph.BuildAll(box, part)
	if err != nil {
		t.Fatal(err)
	}

	// evalAt evaluates the loss with parameter index (pi, i) offset by d.
	evalAt := func(pi, i int, d float64) float64 {
		results, err := comm.RunCollect(2, func(c *comm.Comm) (float64, error) {
			rc, err := NewRankContext(c, box, locals[c.Rank()], comm.NeighborAllToAll)
			if err != nil {
				return 0, err
			}
			model, err := NewModel(cfg)
			if err != nil {
				return 0, err
			}
			model.Params()[pi].W.Data[i] += d
			x := waveField(rc.Graph)
			y := model.Forward(rc, x)
			var loss ConsistentMSE
			return loss.Forward(rc, y, x), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return results[0]
	}

	// Analytic gradient.
	grads, err := comm.RunCollect(2, func(c *comm.Comm) ([]float64, error) {
		rc, err := NewRankContext(c, box, locals[c.Rank()], comm.NeighborAllToAll)
		if err != nil {
			return nil, err
		}
		model, err := NewModel(cfg)
		if err != nil {
			return nil, err
		}
		x := waveField(rc.Graph)
		model.ZeroGrads()
		y := model.Forward(rc, x)
		var loss ConsistentMSE
		loss.Forward(rc, y, x)
		model.Backward(loss.Backward())
		return FlattenAllReducedGrads(c, model), nil
	})
	if err != nil {
		t.Fatal(err)
	}

	model, _ := NewModel(cfg)
	flat := 0
	for pi, p := range model.Params() {
		stride := len(p.W.Data)/2 + 1
		for i := 0; i < len(p.W.Data); i += stride {
			fd := richardsonFD(func(d float64) float64 { return evalAt(pi, i, d) })
			got := grads[0][flat+i]
			if math.Abs(fd-got) > 1e-5*(1+math.Abs(fd)) {
				t.Fatalf("param %d entry %d: analytic %v, fd %v", pi, i, got, fd)
			}
		}
		flat += p.Count()
	}
}

// richardsonFD estimates f'(0) via Richardson-extrapolated central
// differences, (4 D(h) - D(2h)) / 3, cancelling the h² truncation term.
// LayerNorm's small variance floor gives the loss enormous third
// derivatives, so plain central differences at any single h are too noisy
// to validate gradients tightly.
func richardsonFD(f func(d float64) float64) float64 {
	const h = 1e-5
	d1 := (f(h) - f(-h)) / (2 * h)
	d2 := (f(2*h) - f(-2*h)) / (4 * h)
	return (4*d1 - d2) / 3
}

func TestModelForwardShapes(t *testing.T) {
	cfg := tinyConfig()
	box, l := singleRankSetup(t, cfg)
	err := comm.Run(1, func(c *comm.Comm) error {
		rc, err := NewRankContext(c, box, l, comm.NoExchange)
		if err != nil {
			return err
		}
		model, err := NewModel(cfg)
		if err != nil {
			return err
		}
		y := model.Forward(rc, waveField(rc.Graph))
		if y.Rows != rc.Graph.NumLocal() || y.Cols != cfg.OutputNodeFeatures {
			t.Errorf("output %dx%d", y.Rows, y.Cols)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestModelForwardBadInputPanics(t *testing.T) {
	cfg := tinyConfig()
	box, l := singleRankSetup(t, cfg)
	err := comm.Run(1, func(c *comm.Comm) error {
		rc, err := NewRankContext(c, box, l, comm.NoExchange)
		if err != nil {
			return err
		}
		model, err := NewModel(cfg)
		if err != nil {
			return err
		}
		defer func() {
			if recover() == nil {
				t.Error("expected panic for wrong input width")
			}
		}()
		model.Forward(rc, tensor.New(rc.Graph.NumLocal(), 99))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestConsistentMSEKnownValue(t *testing.T) {
	box, l := singleRankSetup(t, tinyConfig())
	err := comm.Run(1, func(c *comm.Comm) error {
		rc, err := NewRankContext(c, box, l, comm.NoExchange)
		if err != nil {
			return err
		}
		n := rc.Graph.NumLocal()
		y := tensor.New(n, 2)
		target := tensor.New(n, 2)
		for i := 0; i < n; i++ {
			y.Set(i, 0, 1) // error 1 in one of two columns
		}
		var loss ConsistentMSE
		got := loss.Forward(rc, y, target)
		if math.Abs(got-0.5) > 1e-12 {
			t.Errorf("loss = %v, want 0.5", got)
		}
		// Backward: dL/dy = 2*diff/(N*Fy).
		dy := loss.Backward()
		want := 2.0 / (float64(n) * 2)
		if math.Abs(dy.At(0, 0)-want) > 1e-12 || dy.At(0, 1) != 0 {
			t.Errorf("dy = %v, want %v", dy.Row(0), want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLossBackwardBeforeForwardPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	var loss ConsistentMSE
	loss.Backward()
}
