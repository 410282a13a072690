// Package gnn implements the paper's primary contribution: a distributed
// graph neural network for mesh-based modeling whose neural message
// passing (NMP) layers are *consistent* — evaluations and gradients on an
// R-way partitioned graph are arithmetically equivalent to the
// unpartitioned R=1 graph (paper Eqs. 2–3).
//
// The architecture is the vetted encode-process-decode design: node and
// edge encoders lift input features to a hidden width, M consistent NMP
// layers exchange messages (with halo swaps and degree-scaled aggregation,
// Eq. 4), and a node decoder produces the output features. Training uses
// the consistent MSE loss of Eq. 6 plus a deterministic gradient
// AllReduce.
package gnn

import (
	"fmt"
	"math/rand"
)

// Precision selects the numeric representation of the serving engine
// compiled by NewInference. Training always runs in float64 regardless.
type Precision int

const (
	// Float64 (the default) compiles the engine over the model's own
	// float64 parameters: predictions are bitwise-equal to Model.Forward
	// (the train/infer parity guarantee).
	Float64 Precision = iota
	// Float32 compiles the single-precision serving twin: parameters and
	// the static-edge encoding down-convert once at compile/bind time,
	// activations and GEMMs run in float32,
	// and only the halo exchange stages through float64 (the transport
	// layer's element type). Predictions approximate the float64 engine
	// to a tolerance instead of bitwise — see the f32 parity tests — and
	// remain bitwise-reproducible across thread counts, transports and
	// batch sizes. Unlike the float64 products, the float32 arithmetic is
	// defined per "SIMD or not": on the AVX2 and AVX-512 rungs the GEMM
	// tiles and the ELU's exponential use fused multiply-adds and agree
	// bit for bit with each other; the pure-Go rung rounds without them.
	Float32
)

// edgeInputCols is the raw edge-attribute width: the static geometry
// columns [dx, dy, dz, |d|] of graph.StaticEdgeFeatures. With it the
// configurations reproduce Table I's trainable-parameter counts exactly.
const edgeInputCols = 4

// Config describes a GNN instance (paper Table I). The edge encoder reads
// the 4 static geometry columns of each directed edge; the node encoder
// reads InputNodeFeatures per node.
type Config struct {
	// Name labels the configuration in reports ("small", "large", ...).
	Name string
	// InputNodeFeatures is the per-node input width (3: velocity).
	InputNodeFeatures int
	// OutputNodeFeatures is the per-node output width (3).
	OutputNodeFeatures int
	// HiddenDim is the hidden channel dimensionality N_H.
	HiddenDim int
	// MessagePassingLayers is M, the number of NMP layers.
	MessagePassingLayers int
	// MLPHiddenLayers is the number of H→H inner linears per MLP.
	MLPHiddenLayers int
	// Overlap selects the phased NMP pipeline: each layer aggregates its
	// boundary (shared) rows first, puts the halo payloads on the wire,
	// and computes the interior aggregation while the messages fly,
	// absorbing the arrivals afterwards (at the head of the node stage) in
	// the same owner-grouped deterministic order as the synchronous path.
	// Results are bitwise identical to Overlap=false on every transport and
	// exchange mode — overlap is a scheduling property, not an arithmetic
	// one.
	Overlap bool
	// Seed drives the deterministic parameter initialization; every
	// rank constructing the same Config holds identical parameters.
	Seed int64
	// Threads, when positive, pins the process-wide intra-rank worker
	// count used by the parallel compute kernels (tensor GEMMs, NMP
	// gather/scatter, MLP forward/backward), capped at runtime.NumCPU()
	// (the kernels are compute-bound, so extra workers only time-slice),
	// and selects the deterministic fixed-schedule reductions. 0 leaves
	// the engine at its current setting (GOMAXPROCS and deterministic by
	// default) entirely untouched. The knob is process-wide because the
	// worker pool is shared across goroutine ranks; NewModel applies it.
	// Callers that want to configure the engine without building a model —
	// or want the relaxed, thread-count-dependent reductions — use
	// meshgnn.SetParallelism (parallel.Configure) directly.
	Threads int
	// Precision selects the serving engine's numeric representation
	// (NewInference only; Float64 keeps bitwise train/infer parity,
	// Float32 compiles the tolerance-gated single-precision twin).
	// Training paths ignore it.
	Precision Precision
}

// SmallConfig returns the paper's "small" model: N_H=8, M=4, 2 MLP hidden
// layers, 3,979 trainable parameters.
func SmallConfig() Config {
	return Config{
		Name:                 "small",
		InputNodeFeatures:    3,
		OutputNodeFeatures:   3,
		HiddenDim:            8,
		MessagePassingLayers: 4,
		MLPHiddenLayers:      2,
		Seed:                 1,
	}
}

// LargeConfig returns the paper's "large" model: N_H=32, M=4, 5 MLP hidden
// layers, 91,459 trainable parameters.
func LargeConfig() Config {
	return Config{
		Name:                 "large",
		InputNodeFeatures:    3,
		OutputNodeFeatures:   3,
		HiddenDim:            32,
		MessagePassingLayers: 4,
		MLPHiddenLayers:      5,
		Seed:                 1,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.InputNodeFeatures < 1:
		return fmt.Errorf("gnn: InputNodeFeatures must be >= 1, got %d", c.InputNodeFeatures)
	case c.OutputNodeFeatures < 1:
		return fmt.Errorf("gnn: OutputNodeFeatures must be >= 1, got %d", c.OutputNodeFeatures)
	case c.HiddenDim < 1:
		return fmt.Errorf("gnn: HiddenDim must be >= 1, got %d", c.HiddenDim)
	case c.MessagePassingLayers < 1:
		return fmt.Errorf("gnn: MessagePassingLayers must be >= 1, got %d", c.MessagePassingLayers)
	case c.MLPHiddenLayers < 0:
		return fmt.Errorf("gnn: MLPHiddenLayers must be >= 0, got %d", c.MLPHiddenLayers)
	case c.Threads < 0:
		return fmt.Errorf("gnn: Threads must be >= 0, got %d", c.Threads)
	}
	if c.Precision != Float64 && c.Precision != Float32 {
		return fmt.Errorf("gnn: unsupported Precision %d", c.Precision)
	}
	return nil
}

// ParamCount returns the number of trainable parameters the configuration
// produces, without building the model.
func (c Config) ParamCount() int {
	h := c.HiddenDim
	mlp := func(in, out int, norm bool) int {
		n := (in*h + h) + c.MLPHiddenLayers*(h*h+h) + (h*out + out)
		if norm {
			n += 2 * out
		}
		return n
	}
	total := mlp(c.InputNodeFeatures, h, true) // node encoder
	total += mlp(edgeInputCols, h, true)       // edge encoder
	total += c.MessagePassingLayers * (mlp(3*h, h, true) + mlp(2*h, h, true))
	total += mlp(h, c.OutputNodeFeatures, false) // decoder
	return total
}

// newRNG returns the deterministic generator used for initialization.
func (c Config) newRNG() *rand.Rand { return rand.New(rand.NewSource(c.Seed)) }
