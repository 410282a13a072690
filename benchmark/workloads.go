package main

import (
	"runtime"
	"time"

	"meshgnn"
)

// kind is the shape of a workload's operation.
type kind int

const (
	kindTrain   kind = iota // op = one Trainer.Step, all ranks in lockstep
	kindServe               // op = one Server.Predict request
	kindRollout             // op = one Server.Rollout request of rolloutSteps steps
)

// spec is one workload: a mesh, a partition, a model and the traffic put
// on them. The shapes are frozen; BENCHMARK.json and README.md record why
// each was chosen and how it was sized.
type spec struct {
	name string
	kind kind

	elems [3]int // spectral elements per axis; the mesh is fully periodic
	order int    // polynomial order p
	ranks int
	fab   meshgnn.TransportKind
	// linkDelay is the emulated wire latency charged on every message
	// (comm.LinkDelay); 0 leaves the fabric bare.
	linkDelay time.Duration
	// config returns the model configuration, thread count included.
	config func() meshgnn.Config

	// serving
	sessions, maxBatch int
	rate               float64 // open-loop arrivals per second; 0 = closed loop
	burst              int     // open loop: requests that arrive together at each instant
	clients            int     // closed-loop clients
	rolloutSteps       int
	snapshots          int // distinct inputs the traffic rotates over
}

const (
	// requestTimeout bounds every served request.
	requestTimeout = 2 * time.Second
	// latencyLimit is the fixed service-level limit of the open-loop
	// workloads: a request that fails or answers later counts as a miss.
	latencyLimit = 150 * time.Millisecond
	// inflightCap bounds the open-loop generator's outstanding requests;
	// an arrival over the cap is refused and counts as failed.
	inflightCap = 64
	// fabricDelay is the emulated one-way wire latency of the two-rank
	// workloads, labelled as emulated wherever it is reported.
	fabricDelay = time.Millisecond
)

func large() meshgnn.Config {
	c := meshgnn.LargeConfig()
	c.Threads = runtime.NumCPU()
	return c
}

func large32() meshgnn.Config {
	c := large()
	c.Precision = meshgnn.Float32
	return c
}

func small() meshgnn.Config {
	c := meshgnn.SmallConfig()
	c.Threads = 1
	return c
}

func smallOverlap() meshgnn.Config {
	c := small()
	c.Overlap = true
	return c
}

// workloads lists the benchmark's workloads in BENCHMARK.json order.
func workloads() []spec {
	serve := spec{
		kind: kindServe, elems: [3]int{8, 4, 4}, order: 2, ranks: 2,
		fab: meshgnn.Sockets, linkDelay: fabricDelay, config: small,
		sessions: 2, maxBatch: 8, snapshots: 8,
	}
	lo, burst, sat := serve, serve, serve
	lo.name, lo.clients = "serve_lo", 1
	burst.name, burst.rate, burst.burst = "serve_burst", 64, 8
	sat.name, sat.clients = "serve_sat", 32

	rollout := spec{
		kind: kindRollout, elems: [3]int{4, 4, 4}, order: 2, ranks: 1,
		fab: meshgnn.InProcess, config: large,
		sessions: 1, maxBatch: 1, clients: 1, rolloutSteps: 4, snapshots: 4,
	}
	r64, r32 := rollout, rollout
	r64.name = "rollout_f64"
	r32.name, r32.config = "rollout_f32", large32

	return []spec{
		{
			name: "train_compute", kind: kindTrain, elems: [3]int{4, 4, 4}, order: 2, ranks: 1,
			fab: meshgnn.InProcess, config: large, snapshots: 8,
		},
		{
			name: "train_halo", kind: kindTrain, elems: [3]int{4, 4, 4}, order: 2, ranks: 2,
			fab: meshgnn.Sockets, linkDelay: fabricDelay, config: smallOverlap, snapshots: 8,
		},
		lo, burst, sat, r64, r32,
	}
}

// smoke shrinks a workload to a shape that runs in well under a second,
// keeping its transport, ranks, model family and traffic pattern.
func (sp spec) smoke() spec {
	sp.elems = [3]int{2 * sp.ranks, 2, 2}
	sp.order = 1
	inner := sp.config
	sp.config = func() meshgnn.Config {
		c := inner()
		c.HiddenDim, c.MLPHiddenLayers, c.MessagePassingLayers = 4, 1, 2
		return c
	}
	if sp.linkDelay > 0 {
		sp.linkDelay = 50 * time.Microsecond
	}
	if sp.rate > 0 {
		sp.rate = 200
	}
	if sp.snapshots > 2 {
		sp.snapshots = 2
	}
	return sp
}

func findWorkload(name string) (spec, bool) {
	for _, sp := range workloads() {
		if sp.name == name {
			return sp, true
		}
	}
	return spec{}, false
}

// opSteps is how many model applications one operation performs.
func (sp spec) opSteps() int {
	if sp.kind == kindRollout {
		return sp.rolloutSteps
	}
	return 1
}

// wire returns the workload's transport interposer chain: the emulated
// link delay innermost, then extra (the counting interposer of a traced
// run) outermost.
func (sp spec) wire(extra func(meshgnn.Transport) meshgnn.Transport) func(meshgnn.Transport) meshgnn.Transport {
	if sp.linkDelay <= 0 && extra == nil {
		return nil
	}
	return meshgnn.ChainWrap(meshgnn.LinkDelay(sp.linkDelay), extra)
}
