// Benchmarks regenerating every table and figure of the paper's
// evaluation section. Absolute times reflect the host, not Frontier; the
// artifacts themselves (consistency rows, partition statistics, measured
// scaling series) are produced inside the bench bodies and asserted for
// the paper's qualitative findings. Run with:
//
//	go test -bench=. -benchmem
package meshgnn

import (
	"testing"

	"meshgnn/internal/comm"
	"meshgnn/internal/experiments"
	"meshgnn/internal/gnn"
)

// BenchmarkTable1_ModelConfigs regenerates Table I: it constructs both
// model configurations and verifies the trainable-parameter counts match
// the published 3,979 / 91,459.
func BenchmarkTable1_ModelConfigs(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows := experiments.Table1()
		if rows[0].Parameters != 3979 || rows[1].Parameters != 91459 {
			b.Fatalf("Table I mismatch: %+v", rows)
		}
		if _, err := gnn.NewModel(gnn.SmallConfig()); err != nil {
			b.Fatal(err)
		}
		if _, err := gnn.NewModel(gnn.LargeConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6Left_ConsistencyInference regenerates Fig. 6 (left): loss
// versus rank count for standard and consistent NMP layers on a cubic
// mesh (scaled down from the paper's 32³ elements to keep a bench
// iteration short; cmd/consistency runs the full size).
func BenchmarkFig6Left_ConsistencyInference(b *testing.B) {
	cfg := gnn.SmallConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig6Left(8, 1, []int{2, 4, 8}, cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if d := r.Consistent - r.TargetR1; d > 1e-10 || d < -1e-10 {
				b.Fatalf("consistency broken at R=%d", r.R)
			}
		}
	}
}

// BenchmarkFig6Right_ConsistencyTraining regenerates Fig. 6 (right): a
// slice of the training curves for the R=1 target and the R=8 standard /
// consistent runs.
func BenchmarkFig6Right_ConsistencyTraining(b *testing.B) {
	b.ReportAllocs()
	cfg := gnn.SmallConfig()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig6Right(4, 1, 8, 5, cfg, 1e-3)
		if err != nil {
			b.Fatal(err)
		}
		for it := range res.TargetR1 {
			d := res.Consistent[it] - res.TargetR1[it]
			if d > 1e-7 || d < -1e-7 {
				b.Fatalf("training consistency broken at iter %d", it)
			}
		}
	}
}

// BenchmarkTable2_PartitionStats regenerates Table II at full paper scale
// — 8 to 2048 ranks, p=5, 16³ elements per rank, 1.1e9 total graph nodes
// — through the analytic statistics path.
func BenchmarkTable2_PartitionStats(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table2(5, 16, []int{8, 64, 512, 2048})
		if err != nil {
			b.Fatal(err)
		}
		if rows[0].HaloAvg != 12800 {
			b.Fatalf("R=8 halo %v, want 12.8k", rows[0].HaloAvg)
		}
	}
}

// BenchmarkFig7_WeakScalingMeasured regenerates Fig. 7 and Fig. 8 on real
// goroutine ranks: training iterations with wall-clock timing, exact
// message counts, and throughput relative to no exchange for each mode.
func BenchmarkFig7_WeakScalingMeasured(b *testing.B) {
	b.ReportAllocs()
	cfg := gnn.SmallConfig()
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig7Measured(3, 2, []int{2, 4, 8}, cfg,
			[]comm.ExchangeMode{comm.AllToAllMode, comm.NeighborAllToAll}, 2)
		if err != nil {
			b.Fatal(err)
		}
		if len(pts) == 0 {
			b.Fatal("no measured points")
		}
	}
}

// --- Ablation benches -------------------------------------------------

// BenchmarkAblation_ExchangeModes times one full distributed training
// iteration under each halo exchange implementation at R=8, isolating the
// per-mode communication cost on real sub-graphs.
func BenchmarkAblation_ExchangeModes(b *testing.B) {
	b.ReportAllocs()
	for _, mode := range []ExchangeMode{NoExchange, AllToAll, NeighborAllToAll} {
		b.Run(mode.String(), func(b *testing.B) {
			b.ReportAllocs()
			m, err := NewMesh(8, 4, 4, 2, FullyPeriodic)
			if err != nil {
				b.Fatal(err)
			}
			sys, err := NewSystem(m, 8, Blocks)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				err := sys.Run(mode, func(r *Rank) error {
					model, err := NewModel(SmallConfig())
					if err != nil {
						return err
					}
					trainer := NewTrainer(model, NewAdam(1e-3))
					x := r.Sample(TaylorGreen{V0: 1, L: 1, Nu: 0.01}, 0)
					trainer.Step(r.Ctx, x, x)
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_ModelSize times one R=1 forward/backward for the
// small and large Table I configurations on the same sub-graph, the
// compute side of the paper's model-size comparison.
func BenchmarkAblation_ModelSize(b *testing.B) {
	b.ReportAllocs()
	for _, cfg := range []Config{SmallConfig(), LargeConfig()} {
		b.Run(cfg.Name, func(b *testing.B) {
			b.ReportAllocs()
			m, err := NewMesh(4, 4, 4, 3, FullyPeriodic)
			if err != nil {
				b.Fatal(err)
			}
			sys, err := NewSystem(m, 1, Slabs)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				err := sys.Run(NoExchange, func(r *Rank) error {
					model, err := NewModel(cfg)
					if err != nil {
						return err
					}
					trainer := NewTrainer(model, NewAdam(1e-3))
					x := r.Sample(TaylorGreen{V0: 1, L: 1, Nu: 0.01}, 0)
					trainer.Step(r.Ctx, x, x)
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExtension_ReducedGraph regenerates the coincident-collapse
// ablation rows (paper Fig. 3(b) vs 3(c)).
func BenchmarkExtension_ReducedGraph(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.ReducedGraphAblation(5, 16, []int{8, 64, 512, 2048})
		if err != nil {
			b.Fatal(err)
		}
		if rows[0].NodeDuplication < 1.3 {
			b.Fatal("unexpected duplication")
		}
	}
}
