package tensor_test

import (
	"fmt"
	"math"
	"testing"

	"meshgnn/internal/comm"
	"meshgnn/internal/gnn"
	"meshgnn/internal/graph"
	"meshgnn/internal/mesh"
	"meshgnn/internal/parallel"
	"meshgnn/internal/partition"
	"meshgnn/internal/tensor"
)

// TestEngine32OnEverySIMDRung runs the float32 serving engine — LargeConfig,
// whose layers take whole 16-wide panels (32 wide) and a lone partial one
// (the 3-wide decoder), on one
// rank and across a 2-rank halo exchange — on each SIMD rung this machine
// has, through the tier hook that only this directory's tests can reach:
// Predict, a stacked PredictBatch of three and a two-step Rollout must
// answer the same bits on avx512 as lowered to avx2 (so an AVX-512 machine
// still exercises the AVX2 float32 engine, and the distance to the float64
// oracle cannot depend on the rung), and stay within tolerance of the
// float64 engine on both.
func TestEngine32OnEverySIMDRung(t *testing.T) {
	if tensor.CPUTier() < tensor.TierAVX2 {
		t.Skipf("no SIMD rung to run: this CPU's top rung is %v", tensor.CPUTier())
	}
	parallel.Configure(2, true)
	defer parallel.Configure(0, true)
	box, err := mesh.NewBox(4, 3, 3, 2, [3]bool{true, true, true})
	if err != nil {
		t.Fatal(err)
	}
	field := func(l *graph.Local, phase float64) *tensor.Matrix {
		x := tensor.New(l.NumLocal(), 3)
		for i := 0; i < l.NumLocal(); i++ {
			cx, cy, cz := l.Coords.At(i, 0), l.Coords.At(i, 1), l.Coords.At(i, 2)
			x.Set(i, 0, math.Sin(2*math.Pi*cx+0.3+phase)*math.Cos(2*math.Pi*cy-0.2))
			x.Set(i, 1, -math.Cos(1.7*cx+0.5)*math.Sin(2.3*cy+1.1+phase))
			x.Set(i, 2, 0.3*math.Sin(1.9*cz+0.7)+0.1*cx+0.05*phase)
		}
		return x
	}
	for _, ranks := range []int{1, 2} {
		part, err := partition.NewCartesian(box, ranks, partition.Slabs)
		if err != nil {
			t.Fatal(err)
		}
		locals, err := graph.BuildAll(box, part)
		if err != nil {
			t.Fatal(err)
		}
		// answers runs the three calls on the current rung and returns, per
		// rank, every output value in order, float32 engine then float64.
		answers := func() [][2][]float64 {
			res, err := comm.RunCollect(ranks, func(c *comm.Comm) ([2][]float64, error) {
				var out [2][]float64
				rc, err := gnn.NewRankContext(c, box, locals[c.Rank()], comm.NeighborAllToAll)
				if err != nil {
					return out, err
				}
				for p, prec := range []gnn.Precision{gnn.Float32, gnn.Float64} {
					cfg := gnn.LargeConfig()
					cfg.Precision = prec
					model, err := gnn.NewModel(cfg)
					if err != nil {
						return out, err
					}
					eng, err := gnn.NewInference(model)
					if err != nil {
						return out, err
					}
					xs := []*tensor.Matrix{field(rc.Graph, 0), field(rc.Graph, 0.4), field(rc.Graph, 0.9)}
					out[p] = append(out[p], eng.Predict(rc, xs[0]).Data...)
					for _, y := range eng.PredictBatch(rc, xs) {
						out[p] = append(out[p], y.Data...)
					}
					for _, y := range eng.Rollout(rc, xs[1], 2) {
						out[p] = append(out[p], y.Data...)
					}
				}
				return out, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		var top [][2][]float64
		for k := tensor.CPUTier(); k >= tensor.TierAVX2; k-- {
			prev := tensor.SetKernelTier(k)
			got := answers()
			tensor.SetKernelTier(prev)
			what := fmt.Sprintf("R%d, rung %v", ranks, k)
			for r := range got {
				f32, f64 := got[r][0], got[r][1]
				for i := range f64 {
					if d := math.Abs(f32[i]-f64[i]) / (1 + math.Abs(f64[i])); !(d <= 1e-2) {
						t.Fatalf("%s, rank %d: float32 value %d is %v, float64 engine says %v", what, r, i, f32[i], f64[i])
					}
				}
				if top == nil {
					continue
				}
				for p, name := range []string{"float32", "float64"} {
					for i, want := range top[r][p] {
						if math.Float64bits(got[r][p][i]) != math.Float64bits(want) {
							t.Fatalf("%s, rank %d: %s value %d is %v, the top rung answered %v (bitwise)", what, r, name, i, got[r][p][i], want)
						}
					}
				}
			}
			if top == nil {
				top = got
			}
		}
	}
}
