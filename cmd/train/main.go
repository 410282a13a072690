// Command train runs distributed-data-parallel training of a consistent
// mesh-based GNN on an analytic flow snapshot — the end-to-end workflow
// of the paper's Fig. 1 on a single host.
//
// Ranks are goroutines by default (-ranks N). With -procs N every rank is
// its own OS process: the command re-execs itself once per worker rank
// with the MESHGNN_RANK/MESHGNN_WORLD environment set, rank 0 coordinates
// in the launching process, and all ranks exchange halo and gradient
// traffic over Unix-domain sockets. The deterministic collectives make
// both modes produce bitwise-identical losses and parameters.
//
// The task maps the field at time t0 to the field at time t1 (set
// -t1 equal to -t0 for the paper's autoencoding demonstration). Training
// reports the consistent loss, which is invariant to the partitioning.
//
// Usage:
//
//	train [-elems 8] [-p 2] [-ranks 8 | -procs 8] [-mode na2a] [-model small]
//	      [-field tgv] [-iters 100] [-lr 1e-3] [-train-batch 1] [-verify]
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"meshgnn"
	"meshgnn/internal/comm"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("train: ")
	var (
		elems    = flag.Int("elems", 8, "elements per axis")
		p        = flag.Int("p", 2, "polynomial order")
		ranks    = flag.Int("ranks", 8, "number of goroutine ranks")
		procs    = flag.Int("procs", 0, "run this many OS-process ranks over sockets (overrides -ranks)")
		modeFlag = flag.String("mode", "na2a", "halo exchange: none, a2a, na2a")
		model    = flag.String("model", "small", "model configuration: small or large")
		fieldSel = flag.String("field", "tgv", "training data: tgv, shear, pulse")
		iters    = flag.Int("iters", 100, "training iterations")
		lr       = flag.Float64("lr", 1e-3, "Adam learning rate")
		t0       = flag.Float64("t0", 0, "input snapshot time")
		t1       = flag.Float64("t1", 0.05, "target snapshot time")
		verify   = flag.Bool("verify", false, "verify Eq. 2 consistency against an R=1 run before training")
		noise    = flag.Float64("noise", 0, "partition-consistent input noise sigma")
		saveTo   = flag.String("save", "", "write the trained model checkpoint to this path")
		loadFrom = flag.String("load", "", "initialize the model from this checkpoint")
		threads  = flag.Int("threads", 0, "intra-rank worker threads per kernel (0 = GOMAXPROCS, 1 = serial)")
		overlap  = flag.Bool("overlap", false, "phased NMP pipeline: overlap halo communication with interior compute (bitwise-identical results)")
		batchSz  = flag.Int("train-batch", 1, "samples per optimizer step, stacked as row blocks (gradient bitwise-equal to sequential accumulation)")
	)
	flag.Parse()

	if *threads < 0 {
		log.Fatalf("-threads must be >= 0, got %d", *threads)
	}
	if *batchSz < 0 {
		log.Fatalf("-train-batch must be >= 0, got %d", *batchSz)
	}
	if *procs < 0 {
		log.Fatalf("-procs must be >= 0, got %d", *procs)
	}
	meshgnn.SetParallelism(*threads)
	mode, err := comm.ParseExchangeMode(*modeFlag)
	if err != nil {
		log.Fatal(err)
	}
	transport := meshgnn.InProcess
	nRanks := *ranks
	if *procs > 0 {
		transport = meshgnn.Processes
		nRanks = *procs
	}
	// A -procs worker re-executes this entire command line; it must stay
	// silent (the coordinator owns stdout) and skip coordinator-only
	// work, but follow the identical setup path so all ranks agree.
	worker := meshgnn.IsWorker()
	say := func(format string, args ...any) {
		if !worker {
			fmt.Printf(format, args...)
		}
	}
	cfg := meshgnn.SmallConfig()
	if *model == "large" {
		cfg = meshgnn.LargeConfig()
	}
	cfg.Overlap = *overlap
	// Parallelism is configured once, above, via SetParallelism; the
	// Config knob stays zero so model construction (and checkpoint
	// loading) cannot re-apply a second, divergent setting.
	f, err := fieldByName(*fieldSel)
	if err != nil {
		log.Fatal(err)
	}

	m, err := meshgnn.NewMesh(*elems, *elems, *elems, *p, meshgnn.FullyPeriodic)
	if err != nil {
		log.Fatal(err)
	}
	sys, err := meshgnn.NewSystem(m, nRanks, meshgnn.Blocks)
	if err != nil {
		log.Fatal(err)
	}
	effThreads := meshgnn.Parallelism()
	overlapLabel := "sync"
	if *overlap {
		overlapLabel = "overlapped"
	}
	say("mesh %d^3 elements p=%d (%d nodes), %d ranks (%s transport), %s exchange (%s), %s model (%d params), %d intra-rank threads\n",
		*elems, *p, m.NumNodes(), nRanks, transport, mode, overlapLabel, cfg.Name, cfg.ParamCount(), effThreads)
	if *batchSz > 1 {
		say("batched training: B=%d time-shifted samples per optimizer step (row-block accumulation)\n", *batchSz)
	}

	if *verify && !worker {
		diff, err := meshgnn.VerifyConsistency(sys, cfg, mode, f, *t0)
		if err != nil {
			log.Fatal(err)
		}
		say("Eq. 2 consistency check: max |Y(R=%d) - Y(R=1)| = %.3g\n", nRanks, diff)
	}

	var checkpoint []byte
	if *loadFrom != "" {
		var err error
		if checkpoint, err = os.ReadFile(*loadFrom); err != nil {
			log.Fatal(err)
		}
		say("initialized from checkpoint %s (%d bytes)\n", *loadFrom, len(checkpoint))
	}

	// Rank 0 always runs in this process (both transports), so capturing
	// its results in the closure works across goroutine and process
	// ranks alike.
	var curve []float64
	var saved []byte
	var timing meshgnn.StepTiming
	err = sys.RunOn(transport, mode, func(r *meshgnn.Rank) error {
		var mdl *meshgnn.Model
		var err error
		if checkpoint != nil {
			mdl, err = meshgnn.LoadModel(bytes.NewReader(checkpoint))
			if err == nil {
				mdl.SetOverlap(*overlap) // the flag, not the checkpoint, decides
			}
		} else {
			mdl, err = meshgnn.NewModel(cfg)
		}
		if err != nil {
			return err
		}
		trainer := meshgnn.NewTrainer(mdl, meshgnn.NewAdam(*lr))
		trainer.Batch = *batchSz
		var ds meshgnn.Dataset
		// With -train-batch B the dataset holds B time-shifted snapshot
		// pairs so a full epoch is one row-block stacked optimizer step.
		// B=1 reproduces the original single-pair dataset exactly.
		nSamples := *batchSz
		if nSamples < 1 {
			nSamples = 1
		}
		shift := *t1 - *t0
		if shift == 0 {
			shift = 0.05 // autoencoding runs still need distinct samples
		}
		for b := 0; b < nSamples; b++ {
			d := float64(b) * shift
			ds.Add(r.Sample(f, *t0+d), r.Sample(f, *t1+d))
		}
		epochLosses := trainer.Fit(r.Ctx, &ds, meshgnn.FitOptions{
			Epochs:      *iters,
			ShuffleSeed: 1,
			NoiseSigma:  *noise,
			NoiseSeed:   2,
		})
		if r.ID() != 0 {
			return nil
		}
		curve = epochLosses
		timing = trainer.Timing()
		if *saveTo != "" {
			var buf bytes.Buffer
			if err := meshgnn.SaveModel(&buf, mdl); err != nil {
				return err
			}
			saved = buf.Bytes()
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	if worker {
		return // the coordinator reports
	}
	if *saveTo != "" {
		if err := os.WriteFile(*saveTo, saved, 0o644); err != nil {
			log.Fatal(err)
		}
		say("checkpoint written to %s (%d bytes)\n", *saveTo, len(saved))
	}
	step := len(curve) / 10
	if step == 0 {
		step = 1
	}
	fmt.Println("\niteration  consistent-loss")
	for it := 0; it < len(curve); it += step {
		fmt.Printf("%9d  %.8f\n", it+1, curve[it])
	}
	fmt.Printf("%9d  %.8f\n", len(curve), curve[len(curve)-1])
	fmt.Printf("\nfinal loss %.3g (reduced %.1fx from iteration 1)\n",
		curve[len(curve)-1], curve[0]/curve[len(curve)-1])

	if timing.Steps > 0 {
		n := float64(timing.Steps)
		ms := func(d time.Duration) float64 { return d.Seconds() * 1e3 / n }
		fmt.Printf("\nper-step phase breakdown (rank 0, avg over %d steps, %s pipeline):\n", timing.Steps, overlapLabel)
		fmt.Printf("  forward   %8.3f ms\n", ms(timing.Forward))
		fmt.Printf("  halo      %8.3f ms  (exposed %.3f ms — comm not hidden by compute)\n",
			ms(timing.Halo), ms(timing.HaloExposed))
		fmt.Printf("  loss      %8.3f ms  (local sum; its reduction rides in the allreduce)\n", ms(timing.Loss))
		fmt.Printf("  backward  %8.3f ms\n", ms(timing.Backward))
		fmt.Printf("  allreduce %8.3f ms  (gradients + loss sum, one collective)\n", ms(timing.AllReduce))
		fmt.Printf("  optimizer %8.3f ms\n", ms(timing.Optimizer))
		fmt.Printf("  total     %8.3f ms\n", ms(timing.Total()))
	}
}

func fieldByName(s string) (meshgnn.Field, error) {
	switch s {
	case "tgv":
		return meshgnn.TaylorGreen{V0: 1, L: 1, Nu: 0.01}, nil
	case "shear":
		return meshgnn.ShearLayer{U0: 1, Thickness: 0.08, Perturbation: 0.05, L: 1}, nil
	case "pulse":
		return meshgnn.GaussianPulse{Amplitude: 1, Sigma0: 0.15, Alpha: 0.05, Cx: 0.5, Cy: 0.5, Cz: 0.5}, nil
	}
	return nil, fmt.Errorf("unknown field %q", s)
}
