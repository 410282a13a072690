// Package perfmodel projects the measured per-rank GNN kernel cost onto
// the Frontier supercomputer's interconnect to regenerate the paper's
// weak-scaling experiments (Figs. 7 and 8) at 8–2048 ranks.
//
// The substitution this makes: we have one CPU-only machine, not 256
// Frontier nodes. What the paper's Figs. 7–8
// actually measure is the *communication pattern* cost of the halo
// exchange implementations relative to compute — A2A's O(R) uniform
// messages versus N-A2A's O(neighbors) messages versus no exchange. Those
// message counts and buffer sizes are computed here exactly, from the real
// partition geometry (the same analytic machinery validated against
// materialized graphs in the partition and graph tests); only the time per
// flop and per byte comes from a machine description.
//
// The machine description follows the paper's Sec. III hardware notes:
// Frontier nodes carry 4 MI250X GPUs = 8 GCDs ("ranks"), four 25 GB/s
// Slingshot NICs per node, and Infinity Fabric links intra-node.
package perfmodel

import (
	"fmt"

	"meshgnn/internal/comm"
)

// Machine describes the modeled system.
type Machine struct {
	Name string
	// RanksPerNode is the number of GPU ranks per node (Frontier: 8 GCDs).
	RanksPerNode int
	// ComputeRate is the sustained model-kernel rate per rank in flop/s.
	ComputeRate float64
	// IntraBW is the per-rank point-to-point bandwidth within a node
	// (Infinity Fabric), bytes/s.
	IntraBW float64
	// InterBW is the per-rank injection bandwidth across nodes
	// (node NIC bandwidth divided by ranks per node), bytes/s.
	InterBW float64
	// Latency is the per-message software+network latency in seconds.
	Latency float64
}

// Frontier returns the machine description used for the paper-scale
// projections. The compute rate is a sustained (not peak) MI250X GCD
// estimate for the small GEMMs this workload performs; it can be
// recalibrated from a measured local kernel rate via Calibrate.
func Frontier() Machine {
	return Machine{
		Name:         "frontier",
		RanksPerNode: 8,
		ComputeRate:  5e12,   // sustained flop/s per GCD on narrow GEMMs
		IntraBW:      50e9,   // Infinity Fabric per-GCD
		InterBW:      12.5e9, // 4 × 25 GB/s NICs shared by 8 GCDs
		Latency:      3e-6,
	}
}

// Calibrate rescales the compute rate so the model reproduces a measured
// per-rank iteration time for a workload with the given flop count,
// anchoring the projection to real kernel measurements.
func (m Machine) Calibrate(flopsPerIter, measuredSeconds float64, speedup float64) Machine {
	if measuredSeconds > 0 && flopsPerIter > 0 {
		m.ComputeRate = flopsPerIter / measuredSeconds * speedup
	}
	return m
}

// Workload describes one rank's share of a weak-scaling configuration.
type Workload struct {
	// Ranks is the total world size R.
	Ranks int
	// NodesPerRank and EdgesPerRank size the local compute.
	NodesPerRank, EdgesPerRank int64
	// HaloPerRank is the average number of halo rows exchanged.
	HaloPerRank int64
	// Neighbors is the average neighbor count.
	Neighbors int
	// MaxSendCount is the global maximum per-neighbor send count — the
	// uniform buffer row count the standard A2A mode pads to.
	MaxSendCount int64
	// Hidden is the hidden channel width N_H (halo buffer columns).
	Hidden int
	// MPLayers is M, the number of NMP layers (each performs one
	// exchange in the forward and one in the backward pass).
	MPLayers int
	// Params is the trainable parameter count (gradient AllReduce size).
	Params int
	// FlopsPerIter is the per-rank flop count of one training iteration.
	FlopsPerIter float64
}

// bytesPerFloat reflects the fp32 tensors the paper's PyTorch stack
// exchanges on the wire.
const bytesPerFloat = 4

// interFraction estimates the fraction of a rank's halo traffic that
// crosses node boundaries. With 8 ranks per node and blocks laid out in
// space, most face neighbors of a rank are off-node once R >> ranks/node;
// at R <= RanksPerNode everything stays on-node.
func (m Machine) interFraction(w Workload) float64 {
	if w.Ranks <= m.RanksPerNode {
		return 0
	}
	// Of the ~6 face neighbors of a sub-cube, typically 1–2 share the
	// node; take 75% off-node as the steady-state estimate.
	return 0.75
}

// effectiveBW blends intra- and inter-node bandwidth for halo traffic.
func (m Machine) effectiveBW(w Workload) float64 {
	f := m.interFraction(w)
	// Serial time through both fabrics: t = bytes*(f/inter + (1-f)/intra).
	return 1 / (f/m.InterBW + (1-f)/m.IntraBW)
}

// ComputeTime returns the per-iteration local compute time.
func (m Machine) ComputeTime(w Workload) float64 {
	return w.FlopsPerIter / m.ComputeRate
}

// HaloTime returns the per-iteration halo exchange time for the mode.
// One exchange happens per NMP layer in the forward pass and one in the
// backward pass (the paper counts 8 all_to_all calls per step for M=4).
func (m Machine) HaloTime(w Workload, mode comm.ExchangeMode) float64 {
	exchanges := float64(2 * w.MPLayers)
	width := float64(w.Hidden) * bytesPerFloat
	switch mode {
	case comm.NoExchange:
		return 0
	case comm.NeighborAllToAll, comm.SendRecvMode:
		// Each rank exchanges its true halo rows with ~Neighbors peers.
		bytes := float64(w.HaloPerRank) * width
		perExchange := float64(w.Neighbors)*m.Latency + bytes/m.effectiveBW(w)
		return exchanges * perExchange
	case comm.AllToAllMode:
		// Uniform buffers to all R-1 peers, padded to the global max
		// send count — the "dummy buffer" traffic the paper calls out.
		peers := float64(w.Ranks - 1)
		bytes := peers * float64(w.MaxSendCount) * width
		perExchange := peers*m.Latency + bytes/m.effectiveBW(w)
		return exchanges * perExchange
	}
	panic(fmt.Sprintf("perfmodel: unknown mode %v", mode))
}

// AllReduceTime models the gradient AllReduce (ring algorithm) plus the
// small latency-bound loss reductions of the consistent loss.
func (m Machine) AllReduceTime(w Workload) float64 {
	if w.Ranks == 1 {
		return 0
	}
	bytes := float64(w.Params) * bytesPerFloat
	r := float64(w.Ranks)
	ring := 2 * (r - 1) / r * bytes / m.InterBW
	steps := 2 * (r - 1)
	lat := steps * m.Latency
	// Three extra scalar AllReduces for the consistent loss (paper
	// Sec. III): latency-bound.
	lossReduce := 3 * 2 * logf(w.Ranks) * m.Latency
	return ring + lat + lossReduce
}

func logf(n int) float64 {
	l := 0.0
	for v := 1; v < n; v <<= 1 {
		l++
	}
	return l
}

// IterTime returns the modeled wall time of one training iteration.
func (m Machine) IterTime(w Workload, mode comm.ExchangeMode) float64 {
	return m.ComputeTime(w) + m.HaloTime(w, mode) + m.AllReduceTime(w)
}

// Throughput returns the total graph nodes processed per second across
// all ranks for one training iteration — the paper's Fig. 7 metric.
func (m Machine) Throughput(w Workload, mode comm.ExchangeMode) float64 {
	return float64(w.Ranks) * float64(w.NodesPerRank) / m.IterTime(w, mode)
}
