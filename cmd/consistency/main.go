// Command consistency regenerates the paper's Fig. 6: the demonstration
// that consistent NMP layers make distributed GNN evaluations (left) and
// training trajectories (right) arithmetically equivalent to the
// unpartitioned R=1 graph, while standard NMP layers deviate.
//
// Usage:
//
//	consistency [-elems 16] [-p 1] [-rmax 64] [-train] [-iters 200] [-model small]
//
// The paper uses a 32³-element p=1 cubic mesh and R up to 64; the default
// here is 16³ to keep single-host runs quick. Pass -elems 32 for the full
// configuration.
//
// A second mode extends the consistency claim across the process
// boundary. With -transport=both the same seeded training runs twice —
// once on R goroutine ranks over the in-process channel fabric, once on R
// separate OS processes over the socket transport (-procs, default 4) —
// and the per-step losses, final parameters, serialized checkpoints and
// served predictions are compared bit for bit. The command exits non-zero
// on any deviation:
//
//	consistency -transport=both [-procs 4] [-elems 4] [-p 1] [-iters 20]
//
// -transport=inproc or -transport=procs runs just one side and prints its
// loss trace (useful for debugging a transport in isolation).
//
// A third mode pins the overlapped halo pipeline: -overlap=both trains
// the same seeded model with the synchronous and the phased (overlapped)
// NMP pipeline — the overlapped side on both the channel and the socket
// fabric — and asserts the same four artifacts agree bit for bit. Overlap
// must be a pure scheduling change:
//
//	consistency -overlap=both [-procs 4] [-elems 4] [-p 1] [-iters 20]
//
// Every run of both modes also checks the serving engine on every rank,
// after its artifacts are saved: the engine compiled from the trained
// model (meshgnn.NewInference) must predict bit for bit what
// Model.Forward does, on two Predicts, and a Float32 compile of the same
// parameters must stay within experiments.F32Tolerance of that float64
// oracle on Predict and on the first experiments.F32RolloutGateSteps
// rollout states. So -transport=both checks the served engine on
// goroutine and OS-process ranks, and -overlap=both on the channel and
// the socket fabric, both pipelines. A rank that fails exits the
// command with an error naming it.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"strings"

	"meshgnn"
	"meshgnn/internal/comm"
	"meshgnn/internal/experiments"
	"meshgnn/internal/gnn"
	"meshgnn/internal/tensor"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("consistency: ")
	var (
		elems     = flag.Int("elems", 16, "elements per axis of the cubic mesh (paper: 32)")
		p         = flag.Int("p", 1, "polynomial order (paper: 1)")
		rmax      = flag.Int("rmax", 64, "largest rank count (powers of two from 2)")
		train     = flag.Bool("train", false, "also run the Fig. 6 (right) training comparison")
		iters     = flag.Int("iters", 200, "training iterations for -train (paper: 1500)")
		rT        = flag.Int("rtrain", 8, "rank count for the training comparison (paper: 8)")
		model     = flag.String("model", "small", "model configuration: small or large")
		lr        = flag.Float64("lr", 1e-3, "Adam learning rate for -train")
		transport = flag.String("transport", "", "cross-transport check: inproc, procs, or both")
		procs     = flag.Int("procs", 4, "rank/process count for -transport and -overlap")
		modeFlag  = flag.String("mode", "na2a", "halo exchange for -transport/-overlap: a2a, na2a")
		overlapCk = flag.String("overlap", "", "overlap check: on, off, or both (both trains synchronous vs overlapped — and overlapped over sockets — and asserts bitwise equality)")
	)
	flag.Parse()

	cfg, err := configByName(*model)
	if err != nil {
		log.Fatal(err)
	}

	if *transport != "" && *overlapCk != "" {
		log.Fatal("-transport and -overlap are separate harnesses; pass one at a time")
	}
	h, which := transportCheck, *transport
	if *overlapCk != "" {
		h, which = overlapCheck, *overlapCk
	}
	if which != "" {
		h.run(which, *procs, *elems, *p, *iters, *lr, *modeFlag, cfg)
		return
	}

	var rs []int
	for r := 2; r <= *rmax; r *= 2 {
		rs = append(rs, r)
	}
	fmt.Printf("Fig. 6 (left): loss vs ranks on a %d^3-element p=%d mesh, %s model (%d parameters)\n\n",
		*elems, *p, cfg.Name, cfg.ParamCount())
	rows, err := experiments.Fig6Left(*elems, *p, rs, cfg)
	if err != nil {
		log.Fatal(err)
	}
	experiments.RenderFig6Left(os.Stdout, rows)
	fmt.Println("\nConsistent NMP losses match the R=1 target; standard NMP deviates with R.")

	if *train {
		fmt.Printf("\nFig. 6 (right): training curves, R=1 target vs R=%d standard/consistent, %d iterations\n\n",
			*rT, *iters)
		res, err := experiments.Fig6Right(*elems, *p, *rT, *iters, cfg, *lr)
		if err != nil {
			log.Fatal(err)
		}
		experiments.RenderFig6Right(os.Stdout, res, 12)
		fmt.Println("\nThe consistent curve retraces the R=1 optimization; the standard curve drifts.")
	}
}

// runArtifacts is everything rank 0 keeps from one seeded training run
// for the bitwise comparison.
type runArtifacts struct {
	losses     []float64
	modelBytes []byte    // SaveModel: architecture + final parameters
	ckptBytes  []byte    // SaveTrainingState: model + optimizer moments + step
	served     []float64 // the float64 engine's prediction on the training input
	// The served check's worst rank: float64 values that differ from
	// Model.Forward, and the float32 engine's relative error.
	servedBits int
	servedRel  float64
}

// side is one seeded training run of a harness: the rank transport it
// runs on and whether its NMP layers overlap the halo exchange with
// interior compute.
type side struct {
	label   string
	kind    meshgnn.TransportKind
	overlap bool
}

// harness is a cross-run check, selected by its flag. The value both
// runs every side; solo[0] or solo[1] runs the first or the second side
// alone (a debugging run that prints its trace and compares nothing).
// The first side is the reference the others must match bit for bit.
type harness struct {
	name, flag string
	solo       [2]string
	sides      []side
}

var (
	transportCheck = harness{"cross-transport", "-transport", [2]string{"inproc", "procs"}, []side{
		{"in-process ranks", meshgnn.InProcess, false},
		{"socket processes", meshgnn.Processes, false},
	}}
	overlapCheck = harness{"overlap", "-overlap", [2]string{"off", "on"}, []side{
		{"synchronous (inproc)", meshgnn.InProcess, false},
		{"overlapped (inproc)", meshgnn.InProcess, true},
		{"overlapped (sockets)", meshgnn.Sockets, true},
	}}
)

// run trains the same seeded model on every selected side and asserts
// the runs are bitwise identical — losses, final parameters, serialized
// checkpoints and the served prediction — after each run has held its
// own served engine to Model.Forward on every rank (checkServed). The
// paper's consistency property must survive the process boundary and
// the overlapped pipeline, not just the partitioning.
func (h harness) run(which string, ranks, elems, p, iters int, lr float64, modeName string, cfg meshgnn.Config) {
	sides := h.sides
	switch which {
	case "both":
	case h.solo[0]:
		sides = sides[:1]
	case h.solo[1]:
		sides = sides[1:2]
	default:
		log.Fatalf("unknown %s %q (want %s, %s, or both)", h.flag, which, h.solo[0], h.solo[1])
	}
	if iters < 1 {
		log.Fatalf("-iters must be >= 1 for %s, got %d", h.flag, iters)
	}
	mode, err := comm.ParseExchangeMode(modeName)
	if err != nil {
		log.Fatal(err)
	}
	if mode == meshgnn.NoExchange {
		log.Fatalf("-mode none is inconsistent by design; %s needs a2a or na2a", h.flag)
	}
	m, err := meshgnn.NewMesh(elems, elems, elems, p, meshgnn.FullyPeriodic)
	if err != nil {
		log.Fatal(err)
	}
	sys, err := meshgnn.NewSystem(m, ranks, meshgnn.Blocks)
	if err != nil {
		log.Fatal(err)
	}

	// A re-exec'd worker only joins the process-rank runs; the
	// coordinator owns every other run and the comparison.
	if meshgnn.IsWorker() {
		for _, s := range sides {
			if s.kind != meshgnn.Processes {
				continue
			}
			if _, err := train(sys, mode, s, cfg, iters, lr); err != nil {
				log.Fatal(err)
			}
		}
		return
	}

	fmt.Printf("%s consistency: %d^3-element p=%d mesh, R=%d, %s exchange, %s model, %d iterations\n",
		h.name, elems, p, ranks, mode, cfg.Name, iters)
	width := 0
	for _, s := range sides {
		width = max(width, len(s.label)+1)
	}
	arts := make([]runArtifacts, len(sides))
	for i, s := range sides {
		if arts[i], err = train(sys, mode, s, cfg, iters, lr); err != nil {
			log.Fatal(err)
		}
		a := arts[i]
		fmt.Printf("  %-*s: final loss %.12g after %d steps\n", width, s.label, a.losses[len(a.losses)-1], len(a.losses))
		fmt.Printf("  %-*s: served %d differing float64 bits vs Model.Forward, float32 max rel error %.3g (gate %g)\n",
			width, s.label, a.servedBits, a.servedRel, experiments.F32Tolerance)
	}
	if len(sides) == 1 {
		return // single-side debugging run: the trace above is the output
	}

	ref, bad := arts[0], false
	for i, cmp := range arts[1:] {
		// One comparison needs no heading; several are each headed and
		// indented under it.
		indent := ""
		if len(arts) > 2 {
			indent = "  "
			fmt.Printf("\n%s vs %s:\n", sides[i+1].label, sides[0].label)
		} else {
			fmt.Println()
		}
		lossDiff, lossBits := maxAbsDiff(ref.losses, cmp.losses)
		paramDiff, paramBits := compareModels(ref.modelBytes, cmp.modelBytes)
		ckptEqual := bytes.Equal(ref.ckptBytes, cmp.ckptBytes)
		servedDiff, servedBits := maxAbsDiff(ref.served, cmp.served)
		fmt.Printf("%smax |Δ| losses      = %g (%d differing bit patterns of %d)\n",
			indent, lossDiff, lossBits, len(ref.losses))
		fmt.Printf("%smax |Δ| parameters  = %g (%d differing bit patterns)\n", indent, paramDiff, paramBits)
		fmt.Printf("%scheckpoint bytes    : %d vs %d, identical=%v\n",
			indent, len(ref.ckptBytes), len(cmp.ckptBytes), ckptEqual)
		fmt.Printf("%smax |Δ| served      = %g (%d differing bit patterns of %d)\n",
			indent, servedDiff, servedBits, len(ref.served))
		if lossBits != 0 || paramBits != 0 || !ckptEqual || servedBits != 0 {
			bad = true
		}
	}
	if bad {
		log.Fatalf("%s INCONSISTENCY: the runs diverged from %s", strings.ToUpper(h.name), sides[0].label)
	}
	fmt.Printf("\nevery %s run is bitwise identical to %s (losses, parameters, checkpoints, served outputs).\n",
		h.name, sides[0].label)
}

// train runs one side's seeded training on every rank, saves the model
// and the training state, then checks the engine compiled from the
// trained model (checkServed). Model init, data and shuffling derive
// from fixed seeds, so process ranks reconstruct the identical state
// without any out-of-band exchange. Rank 0's artifacts are returned.
func train(sys *meshgnn.System, mode meshgnn.ExchangeMode, s side, cfg meshgnn.Config, iters int, lr float64) (runArtifacts, error) {
	cfg.Overlap = s.overlap
	field := meshgnn.TaylorGreen{V0: 1, L: 1, Nu: 0.01}
	var art runArtifacts
	err := sys.RunOn(s.kind, mode, func(r *meshgnn.Rank) error {
		mdl, err := meshgnn.NewModel(cfg)
		if err != nil {
			return err
		}
		trainer := meshgnn.NewTrainer(mdl, meshgnn.NewAdam(lr))
		x := r.Sample(field, 0)
		a := runArtifacts{losses: make([]float64, 0, iters)}
		for it := 0; it < iters; it++ {
			a.losses = append(a.losses, trainer.Step(r.Ctx, x, x))
		}
		// The serialized Config records the Overlap knob, which
		// legitimately differs between the two pipelines; normalize it
		// for the save so checkpoint bytes — parameters and optimizer
		// moments included — must match exactly, then serve with this
		// side's pipeline.
		mdl.SetOverlap(false)
		var mb, cb bytes.Buffer
		if err := meshgnn.SaveModel(&mb, mdl); err != nil {
			return err
		}
		if err := meshgnn.SaveTrainingState(&cb, trainer); err != nil {
			return err
		}
		a.modelBytes, a.ckptBytes = mb.Bytes(), cb.Bytes()
		mdl.SetOverlap(s.overlap)
		if err := checkServed(r, mdl, x, &a); err != nil {
			return err
		}
		if r.ID() == 0 {
			art = a
		}
		return nil
	})
	return art, err
}

// checkServed compiles the serving engine from the trained model and
// holds it to Model.Forward on this rank: the float64 engine bit for bit
// on two Predicts (the second replays the bound arena and the
// static-edge cache), and a Float32 compile of the same parameters
// within experiments.F32Tolerance, as |y32−y64|/(1+|y64|), on those
// Predicts and on the first experiments.F32RolloutGateSteps states of a
// rollout. A rank outside either bound returns an error naming it. It
// records this rank's float64 prediction and the worst rank's differing
// bits and float32 error in a.
func checkServed(r *meshgnn.Rank, mdl *meshgnn.Model, x *meshgnn.Matrix, a *runArtifacts) error {
	eng, err := meshgnn.NewInference(mdl)
	if err != nil {
		return err
	}
	// The engine's precision is read from the model's Config at compile.
	mdl.Config.Precision = meshgnn.Float32
	eng32, err := meshgnn.NewInference(mdl)
	mdl.Config.Precision = meshgnn.Float64
	if err != nil {
		return err
	}
	relErr := func(y32, y64 float64) float64 { return math.Abs(y32-y64) / (1 + math.Abs(y64)) }
	bits, rel := 0, 0.0
	for pass := 0; pass < 2; pass++ {
		want := mdl.Forward(r.Ctx, x)
		got, got32 := eng.Predict(r.Ctx, x), eng32.Predict(r.Ctx, x)
		for i, w := range want.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(w) {
				bits++
			}
			rel = max(rel, relErr(got32.Data[i], w))
		}
		a.served = append(a.served[:0], got.Data...)
	}
	steps := experiments.F32RolloutGateSteps
	ref, traj := meshgnn.Rollout(mdl, r.Ctx, x, steps), eng32.Rollout(r.Ctx, x, steps)
	for s := 1; s <= steps; s++ {
		for i, w := range ref[s].Data {
			rel = max(rel, relErr(traj[s].Data[i], w))
		}
	}

	// Rank 0 reports the worst rank; every rank finishes this collective
	// before any of them refuses.
	worst := []float64{float64(bits), rel}
	r.Ctx.Comm.AllReduceMax(worst)
	if bits != 0 {
		return fmt.Errorf("served engine on rank %d: %d float64 values differ from Model.Forward", r.ID(), bits)
	}
	if !(rel <= experiments.F32Tolerance) {
		return fmt.Errorf("float32 engine on rank %d: relative error %.3g above the %g tolerance",
			r.ID(), rel, experiments.F32Tolerance)
	}
	a.servedBits, a.servedRel = int(worst[0]), worst[1]
	return nil
}

// maxAbsDiff returns the largest tensor.AbsDiff of a and b (+Inf where a
// NaN meets a number) and the count of elements whose float64 bit patterns
// differ (so opposite-sign NaNs or -0 vs +0 cannot hide behind a zero
// numeric difference).
func maxAbsDiff(a, b []float64) (float64, int) {
	if len(a) != len(b) {
		return math.Inf(1), len(a) + len(b)
	}
	var maxD float64
	bits := 0
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			bits++
		}
		if d := tensor.AbsDiff(a[i], b[i]); d > maxD {
			maxD = d
		}
	}
	return maxD, bits
}

// compareModels decodes two serialized models and compares every
// parameter tensor element-wise.
func compareModels(a, b []byte) (float64, int) {
	ma, errA := meshgnn.LoadModel(bytes.NewReader(a))
	mb, errB := meshgnn.LoadModel(bytes.NewReader(b))
	if errA != nil || errB != nil {
		log.Fatalf("decoding checkpoints for comparison: %v / %v", errA, errB)
	}
	pa, pb := ma.Params(), mb.Params()
	if len(pa) != len(pb) {
		return math.Inf(1), len(pa) + len(pb)
	}
	var maxD float64
	bits := 0
	for i := range pa {
		d, n := maxAbsDiff(pa[i].W.Data, pb[i].W.Data)
		if d > maxD {
			maxD = d
		}
		bits += n
	}
	return maxD, bits
}

func configByName(name string) (gnn.Config, error) {
	switch name {
	case "small":
		return gnn.SmallConfig(), nil
	case "large":
		return gnn.LargeConfig(), nil
	}
	return gnn.Config{}, fmt.Errorf("unknown model %q (want small or large)", name)
}
