// Command serve measures and demonstrates the in-situ inference serving
// path: it compiles the forward-only engine (meshgnn.Inference) from the
// seeded model, verifies its predictions are bitwise-equal to the
// training Model.Forward, and reports the serving profile — per-step
// time against the training forward on the same mesh, request
// throughput, and the latency distribution — plus a multi-step rollout
// timing. With -procs N every rank is its own OS process over the socket
// fabric (the command re-execs itself; see comm.RunProcs), so the serving
// numbers include real wire traffic.
//
// The facade request API (System.Serve / Server.Predict / Rollout) is
// exercised with a short request burst on the in-process fabric, so the
// command also smoke-tests the path a solver embedding the surrogate
// would call. With -batch B > 1 the burst is additionally replayed as B
// concurrent requests through a coalescing server (ServeOptions.MaxBatch)
// so one fused block-diagonal evaluation serves the whole cohort; the
// batched answers are checked bitwise against the sequential ones.
//
// Usage:
//
//	serve [-elems 6] [-p 2] [-ranks 2 | -procs 2] [-mode na2a] [-model small]
//	      [-requests 50] [-rollout 10] [-batch 4] [-overlap] [-f32] [-threads N]
//	      [-o point.json]
//
// With -f32 the engine is the single-precision serving twin: the bitwise
// parity check is replaced by a relative-error gate against the float64
// training forward (experiments.F32Tolerance) covering the verified
// predictions and the leading rollout steps; full-trajectory drift is
// reported ungated (autoregressive amplification dominates it).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"sync"
	"time"

	"meshgnn"
	"meshgnn/internal/comm"
	"meshgnn/internal/experiments"
	"meshgnn/internal/field"
	"meshgnn/internal/graph"
	"meshgnn/internal/mesh"
	"meshgnn/internal/partition"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("serve: ")
	var (
		elems    = flag.Int("elems", 6, "elements per axis")
		p        = flag.Int("p", 2, "polynomial order")
		ranks    = flag.Int("ranks", 2, "number of goroutine ranks")
		procs    = flag.Int("procs", 0, "run this many OS-process ranks over sockets (overrides -ranks)")
		modeFlag = flag.String("mode", "na2a", "halo exchange: none, a2a, na2a, sendrecv")
		model    = flag.String("model", "small", "model configuration: small or large")
		requests = flag.Int("requests", 50, "timed inference requests")
		rollout  = flag.Int("rollout", 10, "steps of the timed autoregressive rollout (0 = skip)")
		batch    = flag.Int("batch", 1, "also serve this many concurrent requests through a coalescing batched server (1 = skip)")
		overlap  = flag.Bool("overlap", false, "overlapped halo pipeline in the forward path (bitwise-identical)")
		f32      = flag.Bool("f32", false, "serve the float32 engine twin (tolerance-gated vs the float64 oracle)")
		threads  = flag.Int("threads", 0, "intra-rank worker threads per kernel (0 = GOMAXPROCS, 1 = serial)")
		out      = flag.String("o", "", "also write the measured serving point as JSON to this path")
	)
	flag.Parse()
	if *threads < 0 {
		log.Fatalf("-threads must be >= 0, got %d", *threads)
	}
	if *requests < 1 {
		log.Fatalf("-requests must be >= 1, got %d", *requests)
	}
	meshgnn.SetParallelism(*threads, true)
	mode, err := parseMode(*modeFlag)
	if err != nil {
		log.Fatal(err)
	}
	cfg := meshgnn.SmallConfig()
	if *model == "large" {
		cfg = meshgnn.LargeConfig()
	}
	cfg.Overlap = *overlap
	if *f32 {
		cfg.Precision = meshgnn.Float32
	}

	nRanks := *ranks
	useProcs := *procs > 0
	if useProcs {
		nRanks = *procs
	}
	worker := meshgnn.IsWorker()
	say := func(format string, args ...any) {
		if !worker {
			fmt.Printf(format, args...)
		}
	}

	box, err := mesh.NewBox(*elems, *elems, *elems, *p, [3]bool{true, true, true})
	if err != nil {
		log.Fatal(err)
	}
	part, err := partition.NewCartesian(box, nRanks, partition.Auto)
	if err != nil {
		log.Fatal(err)
	}
	locals, err := graph.BuildAll(box, part)
	if err != nil {
		log.Fatal(err)
	}
	transport := "in-process"
	if useProcs {
		transport = "processes"
	}
	pipeline := "sync"
	if *overlap {
		pipeline = "overlapped"
	}
	precision := "float64"
	if *f32 {
		precision = "float32"
	}
	say("mesh %d^3 elements p=%d (%d nodes), %d ranks (%s), %s exchange (%s), %s model, %s engine\n",
		*elems, *p, box.NumNodes(), nRanks, transport, mode, pipeline, cfg.Name, precision)

	var pt experiments.ServingPoint
	body := func(c *comm.Comm) error {
		got, err := experiments.MeasureInferenceRank(c, box, locals[c.Rank()], mode, cfg, *requests, *rollout)
		if err != nil || c.Rank() != 0 {
			return err
		}
		pt = got
		return nil
	}
	if useProcs {
		err = comm.RunProcs(nRanks, body)
	} else {
		err = comm.Run(nRanks, body)
	}
	if err != nil {
		log.Fatal(err)
	}
	if worker {
		return // the coordinator reports
	}

	if *f32 {
		if pt.ParityMaxRel > experiments.F32Tolerance {
			fmt.Fprintf(os.Stderr, "serve: FAIL float32 engine rel error %.3g vs Model.Forward exceeds %.1g\n",
				pt.ParityMaxRel, experiments.F32Tolerance)
			os.Exit(1)
		}
		fmt.Printf("\nengine parity (float32 twin): max rel error %.3g vs the float64 oracle over forward + the first %d rollout steps (gate %.1g)\n",
			pt.ParityMaxRel, experiments.F32RolloutGateSteps, experiments.F32Tolerance)
		if pt.RolloutMaxRel > 0 {
			fmt.Printf("  full %d-step trajectory drift %.3g (recorded, ungated: the autoregressive map amplifies any perturbation exponentially)\n",
				pt.RolloutSteps, pt.RolloutMaxRel)
		}
	} else {
		if pt.ParityDiffBits != 0 {
			fmt.Fprintf(os.Stderr, "serve: FAIL engine diverged from Model.Forward on %d values (must be bitwise-equal)\n",
				pt.ParityDiffBits)
			os.Exit(1)
		}
		fmt.Printf("\nengine parity: predictions bitwise-equal to Model.Forward (0 differing bit patterns)\n")
	}
	fmt.Printf("\nper-step comparison on the same mesh (%d requests, rank-0 wall clock):\n", pt.Requests)
	fmt.Printf("  training forward step  %12.0f ns\n", pt.TrainForwardNs)
	fmt.Printf("  inference step         %12.0f ns\n", pt.InferNs)
	fmt.Printf("  speedup                %12.3fx  (inference step < training forward step: %v)\n",
		pt.Speedup, pt.InferNs < pt.TrainForwardNs)
	fmt.Printf("\nserving profile:\n")
	fmt.Printf("  throughput  %10.1f req/s\n", pt.ThroughputReqSec)
	fmt.Printf("  latency     mean %.3f ms   p50 %.3f ms   p99 %.3f ms\n",
		pt.LatencyMeanNs/1e6, pt.LatencyP50Ns/1e6, pt.LatencyP99Ns/1e6)
	if pt.RolloutSteps > 0 {
		fmt.Printf("  rollout     %d steps in %.3f ms (%.3f ms/step)\n",
			pt.RolloutSteps, pt.RolloutNs/1e6, pt.RolloutNs/1e6/float64(pt.RolloutSteps))
	}

	if !useProcs {
		if err := serveAPIDemo(box, nRanks, mode, cfg, *batch); err != nil {
			log.Fatal(err)
		}
	}

	if *out != "" {
		data, err := json.MarshalIndent(pt, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nserving point written to %s\n", *out)
	}
}

// serveAPIDemo drives the facade request API: a persistent Server over
// the partitioned system, a burst of Predict requests, and one rollout.
// When batch > 1 the same inputs are replayed as batch concurrent
// requests through a coalescing server and checked bitwise against the
// sequential answers.
func serveAPIDemo(box *mesh.Box, ranks int, mode meshgnn.ExchangeMode, cfg meshgnn.Config, batch int) error {
	sys, err := meshgnn.NewSystem(box, ranks, meshgnn.AutoStrategy)
	if err != nil {
		return err
	}
	mdl, err := meshgnn.NewModel(cfg)
	if err != nil {
		return err
	}
	srv, err := sys.Serve(meshgnn.InProcess, mode, mdl)
	if err != nil {
		return err
	}
	defer srv.Close()

	f := meshgnn.TaylorGreen{V0: 1, L: 1, Nu: 0.01}
	inputs := make([]*meshgnn.Matrix, ranks)
	for r := 0; r < ranks; r++ {
		inputs[r] = field.Sample(f, sys.Locals[r], 0.25)
	}
	const burst = 3
	var seq []*meshgnn.Matrix
	for i := 0; i < burst; i++ {
		outs, err := srv.Predict(inputs)
		if err != nil {
			return err
		}
		if len(outs) != ranks {
			return fmt.Errorf("request API returned %d outputs for %d ranks", len(outs), ranks)
		}
		seq = outs
	}
	trajs, err := srv.Rollout(inputs, 3)
	if err != nil {
		return err
	}
	fmt.Printf("\nrequest API (System.Serve): %d predict requests + one %d-step rollout served on %d ranks\n",
		burst, len(trajs[0])-1, ranks)

	if batch > 1 {
		if err := servedBatchedDemo(sys, mode, mdl, inputs, seq, batch); err != nil {
			return err
		}
	}
	return nil
}

// servedBatchedDemo serves `batch` concurrent copies of the same request
// through a coalescing server so the dispatcher fuses them into one
// block-diagonal evaluation, then verifies every member's answer is
// bitwise-equal to the sequential server's.
func servedBatchedDemo(sys *meshgnn.System, mode meshgnn.ExchangeMode, mdl *meshgnn.Model,
	inputs, want []*meshgnn.Matrix, batch int) error {
	srv, err := sys.ServeWith(meshgnn.InProcess, mode, mdl, meshgnn.ServeOptions{
		MaxBatch:    batch,
		BatchWindow: 50 * time.Millisecond,
	})
	if err != nil {
		return err
	}
	defer srv.Close()

	outs := make([][]*meshgnn.Matrix, batch)
	errs := make([]error, batch)
	var wg sync.WaitGroup
	for i := 0; i < batch; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i], errs[i] = srv.Predict(inputs)
		}(i)
	}
	wg.Wait()
	for i := 0; i < batch; i++ {
		if errs[i] != nil {
			return fmt.Errorf("batched request %d: %w", i, errs[i])
		}
		for r := range want {
			if !bitwiseEqual(outs[i][r], want[r]) {
				return fmt.Errorf("batched request %d rank %d diverged bitwise from the sequential server", i, r)
			}
		}
	}
	fmt.Printf("batched request API (ServeOptions.MaxBatch=%d): %d concurrent requests coalesced, all bitwise-equal to sequential serving\n",
		batch, batch)
	return nil
}

func bitwiseEqual(a, b *meshgnn.Matrix) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}

func parseMode(s string) (meshgnn.ExchangeMode, error) {
	switch s {
	case "none":
		return meshgnn.NoExchange, nil
	case "a2a":
		return meshgnn.AllToAll, nil
	case "na2a":
		return meshgnn.NeighborAllToAll, nil
	case "sendrecv":
		return meshgnn.SendRecv, nil
	}
	return 0, fmt.Errorf("unknown mode %q", s)
}
