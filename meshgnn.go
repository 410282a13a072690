// Package meshgnn is the public API of a consistent distributed graph
// neural network library for mesh-based data-driven modeling, reproducing
// "Scalable and Consistent Graph Neural Networks for Distributed
// Mesh-based Data-driven Modeling" (SC24-W).
//
// The library spans the full workflow of the paper's Fig. 1:
//
//   - spectral-element box meshes with GLL quadrature nodes (the NekRS
//     discretization the graphs coincide with);
//   - domain decomposition (slab/pencil/block and RCB partitioners);
//   - distributed mesh-based graph generation with local coincident-node
//     collapse, halo plans, and consistency degree factors;
//   - consistent neural message passing GNNs with differentiable halo
//     exchanges (None / A2A / Neighbor-A2A modes) and the
//     consistent MSE loss;
//   - an SPMD runtime with deterministic collectives whose ranks are
//     goroutines over channels or sockets, or OS processes over sockets.
//
// A minimal session:
//
//	m, _ := meshgnn.NewMesh(8, 8, 8, 2, meshgnn.FullyPeriodic)
//	sys, _ := meshgnn.NewSystem(m, 4, meshgnn.Blocks)
//	err := sys.Run(meshgnn.NeighborAllToAll, func(r *meshgnn.Rank) error {
//	    model, _ := meshgnn.NewModel(meshgnn.SmallConfig())
//	    trainer := meshgnn.NewTrainer(model, meshgnn.NewAdam(1e-3))
//	    x := r.Sample(meshgnn.TaylorGreen{V0: 1, L: 1, Nu: 0.01}, 0)
//	    for i := 0; i < 100; i++ {
//	        trainer.Step(r.Ctx, x, x)
//	    }
//	    return nil
//	})
//
// Every rank executes the closure collectively; the GNN's outputs and
// gradients are arithmetically identical to an unpartitioned run.
package meshgnn

import (
	"fmt"
	"time"

	"meshgnn/internal/comm"
	"meshgnn/internal/field"
	"meshgnn/internal/gnn"
	"meshgnn/internal/graph"
	"meshgnn/internal/mesh"
	"meshgnn/internal/nn"
	"meshgnn/internal/parallel"
	"meshgnn/internal/partition"
	"meshgnn/internal/solver"
	"meshgnn/internal/tensor"
)

// Re-exported core types. Aliases keep the public API and the internal
// packages interchangeable.
type (
	// Mesh is a spectral-element box discretization.
	Mesh = mesh.Box
	// Config describes a GNN architecture (paper Table I).
	Config = gnn.Config
	// Model is the encode-process-decode consistent GNN.
	Model = gnn.Model
	// RankContext carries one rank's graph, exchanger and communicator.
	RankContext = gnn.RankContext
	// Trainer drives distributed-data-parallel training.
	Trainer = gnn.Trainer
	// ConsistentMSE is the degree-scaled distributed loss (paper Eq. 6).
	ConsistentMSE = gnn.ConsistentMSE
	// Matrix is a dense row-major float64 matrix.
	Matrix = tensor.Matrix
	// ExchangeMode selects the halo exchange implementation.
	ExchangeMode = comm.ExchangeMode
	// Transport is the point-to-point substrate ranks communicate over
	// (in-process channels or sockets); collectives are built on top of
	// it with transport-independent, bitwise-deterministic reductions.
	Transport = comm.Transport
	// Request is the pooled handle of a nonblocking transport operation
	// (Isend/Irecv), completed by Wait — the primitive the overlapped
	// halo pipeline is built on.
	Request = comm.Request
	// StepTiming is the per-phase training-step breakdown (forward, halo
	// — with its exposed-communication subset — loss, backward,
	// allreduce, optimizer), accumulated on every step and read with
	// Trainer.Timing.
	StepTiming = gnn.StepTiming
	// TransportKind selects how ranks are realized and connected:
	// goroutines over channels, goroutines over sockets, or OS processes
	// over sockets.
	TransportKind = comm.TransportKind
	// Strategy selects the Cartesian partition shape.
	Strategy = partition.Strategy
	// RankStats summarizes a rank's sub-graph (paper Table II columns).
	RankStats = partition.RankStats
	// LocalGraph is one rank's reduced sub-graph.
	LocalGraph = graph.Local
	// Field is an analytic vector field used as node data.
	Field = field.Field
	// TaylorGreen is the Taylor–Green vortex field of the paper's runs.
	TaylorGreen = field.TaylorGreen
	// ShearLayer is a periodic shear-layer field.
	ShearLayer = field.ShearLayer
	// GaussianPulse is a diffusing heat-pulse field.
	GaussianPulse = field.GaussianPulse
	// Diffusion is the distributed explicit diffusion solver sharing
	// the GNN's halo machinery (the in-situ data generator).
	Diffusion = solver.Diffusion
	// Dataset holds per-rank (input, target) snapshot pairs.
	Dataset = gnn.Dataset
	// FitOptions configures multi-epoch training with consistent
	// shuffling and noise injection.
	FitOptions = gnn.FitOptions
	// Metrics holds consistent evaluation statistics (MSE, MAE, ...).
	Metrics = gnn.Metrics
	// Inference is the forward-only serving engine compiled from a
	// trained Model: a snapshot of its parameters, no gradient or
	// backward buffers, a fused encode→NMP→decode arena epoch with
	// persistent preprocessed inputs, and overlapped halo exchange in
	// pure-forward mode. At the default Float64 precision predictions are
	// bitwise-equal to Model.Forward as of the compile; with
	// Config.Precision = Float32 the engine serves the tolerance-gated
	// single-precision twin instead.
	Inference = gnn.Inference
	// Precision selects the serving engine's numeric representation
	// (Config.Precision; training always runs float64).
	Precision = gnn.Precision
	// FaultPlan is a deterministic per-rank fault schedule; hand its Wrap
	// to RunOnWith or ServeOptions.WrapTransport to inject failures.
	FaultPlan = comm.FaultPlan
	// FaultEvent is one scheduled fault (trigger op, kind, target peer).
	FaultEvent = comm.FaultEvent
	// FaultKind names an injectable failure mode.
	FaultKind = comm.FaultKind
	// FaultTransport interposes a fault schedule on a transport endpoint.
	FaultTransport = comm.FaultTransport
)

// Classified failure sentinels: every transport- or serving-level failure
// wraps exactly one observable class, testable with errors.Is. See the
// README's "Failure contract" for the full taxonomy.
var (
	// ErrPeerDown marks a dead or disconnected peer rank.
	ErrPeerDown = comm.ErrPeerDown
	// ErrTimeout marks an expired wait bound (receive deadline, request
	// deadline, mid-frame IO deadline).
	ErrTimeout = comm.ErrTimeout
	// ErrCorruptFrame marks a socket frame rejected by integrity checks.
	ErrCorruptFrame = comm.ErrCorruptFrame
	// ErrFault marks a failure manufactured by fault injection.
	ErrFault = comm.ErrFault
)

// Injectable fault kinds (FaultEvent.Kind).
const (
	// FaultDelay stalls one operation (jitter; result stays correct).
	FaultDelay = comm.FaultDelay
	// FaultPeerDown makes one peer look permanently dead to a rank.
	FaultPeerDown = comm.FaultPeerDown
	// FaultDropSend swallows one outbound message.
	FaultDropSend = comm.FaultDropSend
	// FaultDupSend transmits one outbound message twice.
	FaultDupSend = comm.FaultDupSend
	// FaultCorruptFrame damages one message so the receiver rejects it.
	FaultCorruptFrame = comm.FaultCorruptFrame
	// FaultPanic makes one operation panic with ErrFault.
	FaultPanic = comm.FaultPanic
)

// Serving precisions (Config.Precision, consumed by NewInference).
const (
	// Float64 keeps bitwise train/infer parity (the default).
	Float64 = gnn.Float64
	// Float32 compiles the single-precision serving twin: parameters
	// down-convert once, activations and GEMMs run in
	// float32, predictions track the float64 engine to a tested
	// tolerance and stay bitwise-reproducible across thread counts.
	Float32 = gnn.Float32
)

// Halo exchange modes (paper Sec. III).
const (
	// NoExchange disables halo exchanges: the inconsistent baseline.
	NoExchange = comm.NoExchange
	// AllToAll exchanges uniform buffers among all ranks.
	AllToAll = comm.AllToAllMode
	// NeighborAllToAll exchanges only with true neighbors (N-A2A).
	NeighborAllToAll = comm.NeighborAllToAll
)

// Rank transports (see RunOn).
const (
	// InProcess runs every rank as a goroutine over the channel fabric.
	InProcess = comm.InProcess
	// Sockets runs goroutine ranks over real Unix-domain sockets (the
	// socket wire protocol without the process launcher).
	Sockets = comm.Sockets
	// Processes runs every rank as its own OS process connected over
	// sockets (the -procs launcher mode).
	Processes = comm.Processes
)

// Partition strategies.
const (
	// Slabs splits the longest axis only.
	Slabs = partition.Slabs
	// Pencils splits the two longest axes.
	Pencils = partition.Pencils
	// Blocks splits all three axes near-cubically.
	Blocks = partition.Blocks
)

// Periodicity presets.
var (
	// NonPeriodic marks all axes bounded.
	NonPeriodic = [3]bool{false, false, false}
	// FullyPeriodic marks all axes periodic (the TGV configuration).
	FullyPeriodic = [3]bool{true, true, true}
)

// Constructors re-exported from the internal packages.
var (
	// SmallConfig is the paper's small model (3,979 parameters).
	SmallConfig = gnn.SmallConfig
	// LargeConfig is the paper's large model (91,459 parameters).
	LargeConfig = gnn.LargeConfig
	// NewModel builds a GNN from a configuration.
	NewModel = gnn.NewModel
	// NewTrainer pairs a model with an optimizer.
	NewTrainer = gnn.NewTrainer
	// NewAdam returns the Adam optimizer a Trainer steps with.
	NewAdam = nn.NewAdam
	// SampleField fills a node matrix from an analytic field.
	SampleField = field.Sample
	// SaveModel serializes a model (architecture + parameters).
	SaveModel = gnn.SaveModel
	// LoadModel reconstructs a model saved with SaveModel.
	LoadModel = gnn.LoadModel
	// SaveTrainingState checkpoints model + Adam state for bitwise-exact
	// training resumption.
	SaveTrainingState = gnn.SaveTrainingState
	// LoadTrainingState restores a trainer saved with SaveTrainingState.
	LoadTrainingState = gnn.LoadTrainingState
	// NoiseField draws partition-consistent Gaussian training noise
	// keyed by global node IDs.
	NoiseField = gnn.NoiseField
	// Rollout applies a model autoregressively over its own outputs.
	Rollout = gnn.Rollout
	// Evaluate computes consistent error metrics collectively.
	Evaluate = gnn.Evaluate
	// IsWorker reports whether this process was spawned by the -procs
	// launcher (MESHGNN_RANK set); commands use it to mute duplicate
	// output in worker ranks.
	IsWorker = comm.IsWorker
	// NewInference compiles a forward-only serving engine from a model
	// (a snapshot: later training of the model is not visible to it).
	NewInference = gnn.NewInference
	// LoadInference reads a SaveModel checkpoint and compiles a serving
	// engine from it.
	LoadInference = gnn.LoadInference
	// NewFaultPlan returns an empty fault schedule (build it with Add).
	NewFaultPlan = comm.NewFaultPlan
	// NewFaultTransport wraps one endpoint with a fault schedule (nil
	// plan = pure op-counting passthrough, useful for calibration).
	NewFaultTransport = comm.NewFaultTransport
	// RandomFaultPlan draws a deterministic fault schedule from a seed.
	RandomFaultPlan = comm.RandomFaultPlan
	// LinkDelay returns a transport interposer that charges a fixed wire
	// latency on every outbound message — the emulation knob behind the
	// concurrent-serving benchmarks (hand it to ServeOptions.WrapTransport).
	LinkDelay = comm.LinkDelay
	// ChainWrap composes transport interposers (innermost first).
	ChainWrap = comm.ChainWrap
)

// SetParallelism configures the process-wide intra-rank compute engine:
// threads bounds the workers each kernel may use (<= 0 resets to
// GOMAXPROCS; 1 runs every kernel inline), and deterministic selects the
// fixed-schedule reductions that make results bitwise-identical for any
// thread count. false is the only way to the relaxed reductions (chunking
// may follow the thread count: marginally faster, no longer reproducible
// across thread counts); Config.Threads always selects the fixed
// schedule. Intra-rank workers compose with goroutine ranks: the
// pool workers are shared, so R ranks running kernels concurrently add
// at most threads-1 pool goroutines on top of the R rank goroutines
// (each rank also executes chunks itself), rather than R×threads. While
// a lone op runs — one Predict, Rollout or training step, with no other
// op open in the process — threads > 1 keeps that many CPUs busy for the
// op's whole duration, its exchange waits included: the pool's workers
// poll for the op's next region instead of parking between regions.
//
// Requests beyond runtime.NumCPU() are clamped to the core count: the
// kernels are compute-bound, so extra workers only time-slice against
// each other — slower, identical bits.
func SetParallelism(threads int, deterministic bool) {
	parallel.Configure(parallel.Clamp(threads), deterministic)
}

// Parallelism reports the engine's current (threads, deterministic)
// setting.
func Parallelism() (threads int, deterministic bool) {
	return parallel.Threads(), parallel.Deterministic()
}

// NewMesh constructs a spectral-element box mesh with ex×ey×ez hexahedral
// elements of polynomial order p; periodic axes wrap their coincident
// boundary nodes.
func NewMesh(ex, ey, ez, p int, periodic [3]bool) (*Mesh, error) {
	return mesh.NewBox(ex, ey, ez, p, periodic)
}

// System is a partitioned mesh ready for distributed GNN runs: the
// domain-decomposed graph of the paper's Fig. 3, one sub-graph per rank.
type System struct {
	Mesh   *Mesh
	Ranks  int
	Locals []*graph.Local

	cart *partition.Cartesian
}

// NewSystem decomposes the mesh over the given number of ranks and builds
// every rank's reduced sub-graph with halo plans and degree factors.
func NewSystem(m *Mesh, ranks int, strat Strategy) (*System, error) {
	cart, err := partition.NewCartesian(m, ranks, strat)
	if err != nil {
		return nil, err
	}
	return newSystem(m, ranks, cart)
}

// NewSystemRCB decomposes the mesh with recursive coordinate bisection,
// supporting arbitrary (non-power-of-two) rank counts and irregular
// sub-domains. Consistency holds for any partition.
func NewSystemRCB(m *Mesh, ranks int) (*System, error) {
	part, err := partition.NewRCB(m, ranks)
	if err != nil {
		return nil, err
	}
	return newSystem(m, ranks, part)
}

func newSystem(m *Mesh, ranks int, part partition.Partition) (*System, error) {
	locals, err := graph.BuildAll(m, part)
	if err != nil {
		return nil, err
	}
	if err := graph.ValidateAll(locals); err != nil {
		return nil, fmt.Errorf("meshgnn: graph validation: %w", err)
	}
	cart, _ := part.(*partition.Cartesian)
	return &System{Mesh: m, Ranks: ranks, Locals: locals, cart: cart}, nil
}

// Stats returns per-rank sub-graph statistics (local nodes, halo nodes,
// neighbors).
func (s *System) Stats() []RankStats {
	out := make([]RankStats, s.Ranks)
	for i, l := range s.Locals {
		out[i] = l.Stats()
	}
	return out
}

// Rank is the per-rank view handed to Run closures.
type Rank struct {
	// Ctx bundles the communicator, sub-graph, and halo exchanger.
	Ctx *RankContext
	// Graph is this rank's reduced sub-graph.
	Graph *LocalGraph
	// System points back to the owning system.
	System *System
}

// ID returns the rank index.
func (r *Rank) ID() int { return r.Ctx.Comm.Rank() }

// SetCommTimeout bounds every subsequent blocking communication wait on
// this rank — collectives, halo exchanges, the loss reduction: a wait
// exceeding d fails with an ErrTimeout-classified error instead of
// hanging on a dead or desynchronized peer. d <= 0 restores unbounded
// waits (the default). The bound is realized with a reused per-rank
// timer, so a bounded steady state stays allocation-free.
func (r *Rank) SetCommTimeout(d time.Duration) { r.Ctx.Comm.SetRecvTimeout(d) }

// Sample fills a node-attribute matrix from an analytic field at time t.
func (r *Rank) Sample(f Field, t float64) *Matrix {
	return field.Sample(f, r.Graph, t)
}

// Loss evaluates the consistent MSE between y and target collectively.
func (r *Rank) Loss(y, target *Matrix) float64 {
	var l ConsistentMSE
	return l.Forward(r.Ctx, y, target)
}

// Assemble gathers per-rank outputs into the unpartitioned global matrix
// on rank 0 (nil elsewhere), returning the maximum discrepancy between
// coincident copies as a consistency diagnostic.
func (r *Rank) Assemble(y *Matrix) (*Matrix, float64) {
	return gnn.GlobalOutputs(r.Ctx, y, r.System.Mesh.NumNodes())
}

// NewDiffusion builds the distributed diffusion solver on this rank's
// sub-graph, reusing the rank's halo exchange mode. All ranks must call
// collectively.
func (r *Rank) NewDiffusion(alpha, dt float64) (*Diffusion, error) {
	return solver.NewDiffusion(r.Ctx.Comm, r.System.Mesh, r.Graph, r.Ctx.Ex.Mode, alpha, dt)
}

// Run executes fn on every rank concurrently (SPMD): each rank gets its
// own goroutine, communicator, and sub-graph. Collective operations
// inside fn (model forward/backward, loss, trainer steps) must be called
// by all ranks in the same order.
func (s *System) Run(mode ExchangeMode, fn func(r *Rank) error) error {
	return s.RunOn(InProcess, mode, fn)
}

// RunOn is Run with an explicit rank transport:
//
//   - InProcess: goroutine ranks over the channel fabric (Run's default);
//   - Sockets: goroutine ranks over real Unix-domain sockets, exercising
//     the full wire protocol inside one process;
//   - Processes: one OS process per rank. The calling process becomes
//     rank 0 and re-execs its binary for ranks 1..R-1 (the MESHGNN_RANK /
//     MESHGNN_WORLD environment protocol); in a spawned worker, RunOn
//     connects as the assigned rank instead. Per-rank return values
//     cannot cross the process boundary, so fn must persist anything a
//     worker needs to hand back (rank 0 runs in the calling process and
//     can capture results in its closure).
//
// The deterministic collectives make training bitwise-identical across
// all three (asserted by cmd/consistency -transport=both).
func (s *System) RunOn(kind TransportKind, mode ExchangeMode, fn func(r *Rank) error) error {
	return s.RunOnWith(kind, mode, nil, fn)
}

// RunOnWith is RunOn with a per-rank transport wrapper applied to every
// endpoint before fn starts — the injection point for fault schedules
// (FaultPlan.Wrap) and any other interposer. A nil wrap degenerates to
// RunOn. Process ranks cannot carry an in-memory wrapper across the exec
// boundary, so Processes with a non-nil wrap is rejected.
func (s *System) RunOnWith(kind TransportKind, mode ExchangeMode, wrap func(Transport) Transport, fn func(r *Rank) error) error {
	run := func(c *comm.Comm) error {
		rc, err := gnn.NewRankContext(c, s.Mesh, s.Locals[c.Rank()], mode)
		if err != nil {
			return err
		}
		return fn(&Rank{Ctx: rc, Graph: s.Locals[c.Rank()], System: s})
	}
	switch kind {
	case InProcess:
		return comm.RunWith(s.Ranks, wrap, run)
	case Sockets:
		return comm.RunSocketsWith(s.Ranks, wrap, run)
	case Processes:
		if wrap != nil {
			return fmt.Errorf("meshgnn: transport wrappers cannot cross the process boundary; use goroutine ranks")
		}
		return comm.RunProcs(s.Ranks, run)
	}
	return fmt.Errorf("meshgnn: unknown transport kind %v", kind)
}

// RunCollect is Run with a per-rank return value, indexed by rank.
func RunCollect[T any](s *System, mode ExchangeMode, fn func(r *Rank) (T, error)) ([]T, error) {
	return comm.RunCollect(s.Ranks, func(c *comm.Comm) (T, error) {
		rc, err := gnn.NewRankContext(c, s.Mesh, s.Locals[c.Rank()], mode)
		if err != nil {
			var zero T
			return zero, err
		}
		return fn(&Rank{Ctx: rc, Graph: s.Locals[c.Rank()], System: s})
	})
}

// VerifyConsistency runs the model on the partitioned system and on the
// equivalent single-rank system, returning the maximum absolute
// difference between the assembled outputs — a direct check of the
// paper's Eq. 2 for arbitrary user configurations.
func VerifyConsistency(s *System, cfg Config, mode ExchangeMode, f Field, t float64) (float64, error) {
	outputs := func(sys *System, m ExchangeMode) (*Matrix, error) {
		res, err := RunCollect(sys, m, func(r *Rank) (*Matrix, error) {
			model, err := gnn.NewModel(cfg)
			if err != nil {
				return nil, err
			}
			y := model.Forward(r.Ctx, r.Sample(f, t))
			out, _ := r.Assemble(y)
			return out, nil
		})
		if err != nil {
			return nil, err
		}
		return res[0], nil
	}
	// RCB at R=1 is the trivial partition of any box.
	single, err := NewSystemRCB(s.Mesh, 1)
	if err != nil {
		return 0, err
	}
	ref, err := outputs(single, mode)
	if err != nil {
		return 0, err
	}
	got, err := outputs(s, mode)
	if err != nil {
		return 0, err
	}
	if ref == nil || got == nil {
		return 0, fmt.Errorf("meshgnn: assembly returned no output")
	}
	return got.MaxAbsDiff(ref), nil
}
