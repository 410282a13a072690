package gnn

import (
	"fmt"
	"math"
	"testing"

	"meshgnn/internal/comm"
	"meshgnn/internal/graph"
	"meshgnn/internal/mesh"
	"meshgnn/internal/parallel"
	"meshgnn/internal/partition"
	"meshgnn/internal/tensor"
)

// f32Config is tinyConfig widened so the processor GEMMs take a whole
// 16-wide panel and a partial one (24 columns) at an inner dimension of
// 3·24 — nearer the serving twin's production shapes — while staying fast.
func f32Config() Config {
	cfg := tinyConfig()
	cfg.HiddenDim = 24
	cfg.Precision = Float32
	return cfg
}

// f32Tolerance bounds the f32 twin's relative error against the f64
// engine: a few layers of single-precision GEMM and normalization over
// O(1) activations accumulate at worst a few hundred ULPs.
const f32Tolerance = 5e-4

// TestInferenceF32ToleranceAcrossRanks gates the serving twin against the
// float64 engine across {1,2,4 ranks} × {sync, overlap}: the promoted f32
// prediction must track the f64 oracle within f32Tolerance on every rank,
// with the halo exchange staging through the unchanged transport.
func TestInferenceF32ToleranceAcrossRanks(t *testing.T) {
	box, err := mesh.NewBox(4, 3, 3, 2, [3]bool{true, true, true})
	if err != nil {
		t.Fatal(err)
	}
	for _, ranks := range []int{1, 2, 4} {
		part, err := partition.NewCartesian(box, ranks, partition.Slabs)
		if err != nil {
			t.Fatal(err)
		}
		locals, err := graph.BuildAll(box, part)
		if err != nil {
			t.Fatal(err)
		}
		for _, overlap := range []bool{false, true} {
			name := fmt.Sprintf("R%d/overlap=%v", ranks, overlap)
			t.Run(name, func(t *testing.T) {
				cfg := f32Config()
				cfg.Overlap = overlap
				body := func(c *comm.Comm) (float64, error) {
					rc, err := NewRankContext(c, box, locals[c.Rank()], comm.NeighborAllToAll)
					if err != nil {
						return 0, err
					}
					model, err := NewModel(cfg)
					if err != nil {
						return 0, err
					}
					cfg64 := cfg
					cfg64.Precision = Float64
					model64, err := NewModel(cfg64)
					if err != nil {
						return 0, err
					}
					eng32, err := NewInference(model)
					if err != nil {
						return 0, err
					}
					eng64, err := NewInference(model64)
					if err != nil {
						return 0, err
					}
					x := waveField(rc.Graph)
					var worst float64
					for pass := 0; pass < 2; pass++ { // second pass replays the arenas
						y32 := eng32.Predict(rc, x).Clone()
						y64 := eng64.Predict(rc, x)
						for i := range y64.Data {
							d := math.Abs(y32.Data[i] - y64.Data[i])
							if r := d / (1 + math.Abs(y64.Data[i])); r > worst {
								worst = r
							}
						}
					}
					return worst, nil
				}
				res, err := comm.RunCollect(ranks, body)
				if err != nil {
					t.Fatal(err)
				}
				for r, worst := range res {
					if worst > f32Tolerance {
						t.Errorf("rank %d: f32 twin rel error %g exceeds %g", r, worst, f32Tolerance)
					}
					if worst == 0 && ranks == 1 {
						t.Error("suspicious exact-zero divergence: is the f32 path actually running?")
					}
				}
			})
		}
	}
}

// TestInferenceF32BitwiseAcrossThreads pins the twin's own determinism:
// f32 predictions are approximations of the oracle, but must be
// bitwise-identical across thread counts like every other engine path.
func TestInferenceF32BitwiseAcrossThreads(t *testing.T) {
	box, err := mesh.NewBox(4, 3, 3, 2, [3]bool{true, true, true})
	if err != nil {
		t.Fatal(err)
	}
	part, err := partition.NewCartesian(box, 1, partition.Slabs)
	if err != nil {
		t.Fatal(err)
	}
	locals, err := graph.BuildAll(box, part)
	if err != nil {
		t.Fatal(err)
	}
	defer parallel.Configure(0, true)
	var base *tensor.Matrix
	for _, threads := range []int{1, 2, 8} {
		parallel.Configure(threads, true)
		body := func(c *comm.Comm) (*tensor.Matrix, error) {
			rc, err := NewRankContext(c, box, locals[0], comm.NeighborAllToAll)
			if err != nil {
				return nil, err
			}
			model, err := NewModel(f32Config())
			if err != nil {
				return nil, err
			}
			eng, err := NewInference(model)
			if err != nil {
				return nil, err
			}
			return eng.Predict(rc, waveField(rc.Graph)).Clone(), nil
		}
		res, err := comm.RunCollect(1, body)
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = res[0]
			continue
		}
		for i := range base.Data {
			if math.Float64bits(res[0].Data[i]) != math.Float64bits(base.Data[i]) {
				t.Fatalf("threads=%d changes f32 prediction bits at index %d", threads, i)
			}
		}
	}
}

// TestInferenceF32RolloutTolerance bounds the twin's drift over an
// autoregressive rollout — the error compounds through the f64 round-trip
// each step, so the gate is looser than single-shot but still tight
// enough to catch a broken kernel (which diverges by orders of
// magnitude).
func TestInferenceF32RolloutTolerance(t *testing.T) {
	box, err := mesh.NewBox(4, 3, 3, 2, [3]bool{true, true, true})
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
	const steps = 5
	body := func(c *comm.Comm) (float64, error) {
		rc, err := NewRankContext(c, box, locals[c.Rank()], comm.NeighborAllToAll)
		if err != nil {
			return 0, err
		}
		model, err := NewModel(f32Config())
		if err != nil {
			return 0, err
		}
		cfg64 := f32Config()
		cfg64.Precision = Float64
		model64, err := NewModel(cfg64)
		if err != nil {
			return 0, err
		}
		eng32, err := NewInference(model)
		if err != nil {
			return 0, err
		}
		eng64, err := NewInference(model64)
		if err != nil {
			return 0, err
		}
		x := waveField(rc.Graph)
		tr32 := eng32.Rollout(rc, x, steps)
		tr64 := eng64.Rollout(rc, x, steps)
		var worst float64
		for s := range tr64 {
			for i := range tr64[s].Data {
				d := math.Abs(tr32[s].Data[i] - tr64[s].Data[i])
				if r := d / (1 + math.Abs(tr64[s].Data[i])); r > worst {
					worst = r
				}
			}
		}
		return worst, nil
	}
	res, err := comm.RunCollect(2, body)
	if err != nil {
		t.Fatal(err)
	}
	for r, worst := range res {
		if worst > 50*f32Tolerance {
			t.Errorf("rank %d: rollout rel error %g exceeds %g", r, worst, 50*f32Tolerance)
		}
	}
}
