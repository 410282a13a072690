package gnn

import (
	"fmt"

	"meshgnn/internal/tensor"
)

// Rollout applies the model autoregressively: state_{n+1} = G(state_n),
// the deployment mode of one-step surrogates. It returns the trajectory
// including the initial state (steps+1 matrices). The model's input and
// output widths must match. All ranks must call collectively.
func Rollout(model *Model, rc *RankContext, x0 *tensor.Matrix, steps int) []*tensor.Matrix {
	if model.Config.InputNodeFeatures != model.Config.OutputNodeFeatures {
		panic(fmt.Sprintf("gnn: rollout needs matching widths, have %d -> %d",
			model.Config.InputNodeFeatures, model.Config.OutputNodeFeatures))
	}
	out := make([]*tensor.Matrix, 0, steps+1)
	state := x0.Clone()
	out = append(out, state)
	for s := 0; s < steps; s++ {
		// Forward returns a model-owned buffer that the next call
		// overwrites; each trajectory entry needs its own copy.
		state = model.Forward(rc, state).Clone()
		out = append(out, state)
	}
	return out
}
