package meshgnn_test

import (
	"fmt"

	"meshgnn"
)

// Example demonstrates the minimal distributed-training session: build a
// mesh, decompose it, train the paper's small GNN collectively, and
// verify the partitioned evaluation matches the unpartitioned one.
func Example() {
	m, err := meshgnn.NewMesh(4, 4, 2, 1, meshgnn.FullyPeriodic)
	if err != nil {
		panic(err)
	}
	sys, err := meshgnn.NewSystem(m, 4, meshgnn.Blocks)
	if err != nil {
		panic(err)
	}
	tgv := meshgnn.TaylorGreen{V0: 1, L: 1, Nu: 0.01}
	diff, err := meshgnn.VerifyConsistency(sys, meshgnn.SmallConfig(), meshgnn.NeighborAllToAll, tgv, 0)
	if err != nil {
		panic(err)
	}
	fmt.Printf("consistent: %v\n", diff < 1e-10)
	// Output:
	// consistent: true
}

// Example_training shows a collective training loop: every rank holds the
// same model, and the consistent loss is identical everywhere.
func Example_training() {
	m, _ := meshgnn.NewMesh(4, 2, 2, 1, meshgnn.NonPeriodic)
	sys, _ := meshgnn.NewSystem(m, 2, meshgnn.Slabs)
	losses, err := meshgnn.RunCollect(sys, meshgnn.NeighborAllToAll, func(r *meshgnn.Rank) (float64, error) {
		model, err := meshgnn.NewModel(meshgnn.SmallConfig())
		if err != nil {
			return 0, err
		}
		trainer := meshgnn.NewTrainer(model, meshgnn.NewAdam(1e-3))
		x := r.Sample(meshgnn.TaylorGreen{V0: 1, L: 1, Nu: 0.01}, 0)
		var last float64
		for i := 0; i < 5; i++ {
			last = trainer.Step(r.Ctx, x, x)
		}
		return last, nil
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("ranks agree: %v\n", losses[0] == losses[1])
	// Output:
	// ranks agree: true
}
