// Command scaling regenerates the paper's weak-scaling evaluation on this
// host: Table I (model settings), then Fig. 7 measured on real goroutine
// ranks at R = 1, 2, 4, 8, with wall-clock timing and exact
// per-iteration message counts. The relative column (throughput against
// the no-exchange model at the same R) is Fig. 8 measured.
//
// Usage:
//
//	scaling [-iters 3] [-elems 2] [-p 3] [-overlap] [-reduced]
//
// -procs N measures one point with real OS-process ranks over the socket
// transport instead: the command re-execs itself once per worker rank
// (MESHGNN_RANK/MESHGNN_WORLD environment), rank 0 coordinates, and the
// row reports wall time plus exact per-iteration traffic crossing the
// process boundary. -reduced adds the reduced-graph ablation, computed
// analytically at 8–2048 ranks.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"meshgnn/internal/comm"
	"meshgnn/internal/experiments"
	"meshgnn/internal/gnn"
	"meshgnn/internal/parallel"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("scaling: ")
	var (
		iters    = flag.Int("iters", 3, "timed iterations per measured point")
		elems    = flag.Int("elems", 2, "elements per rank per axis (>= 2: the mesh is periodic)")
		p        = flag.Int("p", 3, "polynomial order (paper: 5)")
		reduced  = flag.Bool("reduced", false, "also report the reduced-graph (coincident collapse) ablation")
		threads  = flag.Int("threads", 0, "intra-rank worker threads per kernel (0 = GOMAXPROCS, 1 = serial)")
		det      = flag.Bool("deterministic", true, "fixed-schedule reductions: results bitwise-identical for any -threads")
		procs    = flag.Int("procs", 0, "measure one point with this many OS-process ranks over sockets")
		procMode = flag.String("procmode", "na2a", "halo exchange for -procs: none, a2a, na2a")
		overlap  = flag.Bool("overlap", false, "overlap halo communication with interior compute (bitwise-identical results)")
	)
	flag.Parse()
	switch {
	case *threads < 0:
		log.Fatalf("-threads must be >= 0, got %d", *threads)
	case *iters < 1:
		log.Fatalf("-iters must be >= 1, got %d", *iters)
	case *p < 1:
		log.Fatalf("-p must be >= 1, got %d", *p)
	case *elems < 2:
		log.Fatalf("-elems must be >= 2 (the mesh is periodic), got %d", *elems)
	}
	parallel.Configure(*threads, *det)

	if *procs > 0 {
		runProcs(*p, *elems, *procs, *procMode, *iters, *overlap)
		return
	}

	fmt.Println("Table I: GNN model settings")
	fmt.Println()
	experiments.RenderTable1(os.Stdout, experiments.Table1())

	runMeasured(*p, *elems, *iters, *overlap)

	if *reduced {
		var rs []int
		for r := 8; r <= 2048; r *= 2 {
			rs = append(rs, r)
		}
		fmt.Println("\nReduced-graph ablation (paper Fig. 3(c)): local coincident collapse savings")
		fmt.Println()
		rg, err := experiments.ReducedGraphAblation(5, 16, rs)
		if err != nil {
			log.Fatal(err)
		}
		experiments.RenderReducedGraph(os.Stdout, rg)
	}
}

// runProcs measures one weak-scaling point with real OS-process ranks:
// this process coordinates as rank 0 and re-execs itself for the workers.
func runProcs(p, elems, procs int, modeName string, iters int, overlap bool) {
	mode, err := comm.ParseExchangeMode(modeName)
	if err != nil {
		log.Fatal(err)
	}
	worker := comm.IsWorker()
	if !worker {
		fmt.Printf("\nFig. 7 (process tier): %d OS-process ranks over sockets, %d^3 elements/rank, p=%d, %s exchange (overlap=%v), %d iters\n\n",
			procs, elems, p, mode, overlap, iters)
	}
	cfg := gnn.SmallConfig()
	cfg.Overlap = overlap
	pt, err := experiments.MeasuredProcs(p, elems, procs, cfg, mode, iters)
	if err != nil {
		log.Fatal(err)
	}
	if worker {
		return
	}
	experiments.RenderMeasured(os.Stdout, []experiments.MeasuredPoint{pt})
}

// runMeasured executes the real distributed trainer across rank counts
// and exchange modes on this host, printing the per-iteration halo time
// and its exposed (unhidden) subset alongside throughput.
func runMeasured(p, elems, iters int, overlap bool) {
	fmt.Printf("\nFig. 7 (measured tier): real goroutine ranks, %d^3 elements/rank, p=%d, %d iters/point, %d intra-rank threads, overlap=%v\n",
		elems, p, iters, parallel.Threads(), overlap)
	fmt.Println("(single-host ranks time-share cores: compare the relative column, not absolute scaling)")
	fmt.Println()
	cfg := gnn.SmallConfig()
	cfg.Overlap = overlap
	pts, err := experiments.Fig7Measured(p, elems, []int{1, 2, 4, 8}, cfg,
		[]comm.ExchangeMode{comm.AllToAllMode, comm.NeighborAllToAll}, iters)
	if err != nil {
		log.Fatal(err)
	}
	experiments.RenderMeasured(os.Stdout, pts)
}
