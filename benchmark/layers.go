package main

import (
	"math/rand"
	"runtime"
	"time"

	"meshgnn"
	"meshgnn/internal/comm"
	"meshgnn/internal/gnn"
	"meshgnn/internal/graph"
	"meshgnn/internal/mesh"
	"meshgnn/internal/nn"
	"meshgnn/internal/parallel"
	"meshgnn/internal/partition"
	"meshgnn/internal/tensor"
)

// layerMetrics measures, from outside, the layers a workload is built
// from, each through its own public functions at the workload's own
// shapes. It runs after the workload's traffic has ended, so nothing
// competes with it.
func layerMetrics(sp spec, times []float64, v map[string]float64) error {
	cfg := sp.config()
	locals, err := setupLayers(sp, v)
	if err != nil {
		return err
	}
	kernelLayers(cfg, locals[0].NumEdges(), v)
	if err := fabricLayers(sp, times, v); err != nil {
		return err
	}
	return bareFabric(cfg.ParamCount(), v)
}

// timeCalls runs fn until it has run at least three times and for at least
// 100 ms, and returns the median time of one call.
func timeCalls(fn func()) time.Duration {
	fn() // warm: first-call allocation and packing
	var each []float64
	for start := time.Now(); len(each) < 3 || time.Since(start) < 100*time.Millisecond; {
		t0 := time.Now()
		fn()
		each = append(each, float64(time.Since(t0)))
	}
	return time.Duration(median(each))
}

// setupLayers times the steps NewSystem is made of, called separately.
func setupLayers(sp spec, v map[string]float64) ([]*graph.Local, error) {
	var (
		box    *mesh.Box
		cart   *partition.Cartesian
		locals []*graph.Local
		err    error
	)
	step := func(name string, fn func()) {
		if err == nil {
			v[name] = timeCalls(fn).Seconds()
		}
	}
	step("mesh.build_s", func() {
		box, err = mesh.NewBox(sp.elems[0], sp.elems[1], sp.elems[2], sp.order, meshgnn.FullyPeriodic)
	})
	step("partition.build_s", func() { cart, err = partition.NewCartesian(box, sp.ranks, partition.Slabs) })
	step("graph.build_s", func() { locals, err = graph.BuildAll(box, cart) })
	step("graph.validate_s", func() { err = graph.ValidateAll(locals) })
	if err != nil {
		return nil, err
	}
	for _, l := range locals {
		v["partition.halo_nodes"] += float64(l.Stats().HaloNodes)
		v["graph.edges"] += float64(l.NumEdges())
	}
	return locals, nil
}

// kernelLayers times the tensor kernels and the MLP block at the shape of
// the workload's edge update: one row per edge of rank 0's graph, 3H
// columns in, H out. Operations are counted from the sizes.
func kernelLayers(cfg meshgnn.Config, edges int, v map[string]float64) {
	h := cfg.HiddenDim
	rng := rand.New(rand.NewSource(1))
	random := func(rows, cols int) *tensor.Matrix {
		m := tensor.New(rows, cols)
		for i := range m.Data {
			m.Data[i] = rng.NormFloat64()
		}
		return m
	}
	a, b, dst := random(edges, 3*h), random(3*h, h), tensor.New(edges, h)
	dy, dw := random(edges, h), tensor.New(3*h, h)
	flops := 2 * float64(edges) * float64(3*h) * float64(h)
	gflops := func(d time.Duration) float64 { return flops / d.Seconds() / 1e9 }

	matmul := func() { tensor.MatMul(dst, a, b) }
	many := timeCalls(matmul)
	v["tensor.matmul_gflops"] = gflops(many)
	v["tensor.matmul_atb_gflops"] = gflops(timeCalls(func() { tensor.MatMulATB(dw, a, dy) }))
	a32, b32, dst32 := tensor.Demote32(a), tensor.Demote32(b), tensor.New32(edges, h)
	v["tensor.matmul32_gflops"] = gflops(timeCalls(func() { tensor.MatMul32(dst32, a32, b32) }))
	elems := len(dst32.Data)
	src32 := tensor.Demote32(dy)
	v["tensor.elu32_ns_per_elem"] = float64(timeCalls(func() { tensor.EluRange32(dst32.Data, src32.Data, 0, elems) })) / float64(elems)

	// The same product on one thread against all processors. The thread
	// count is process-wide; the workload's own setting is put back.
	threads, det := parallel.Threads(), parallel.Deterministic()
	parallel.Configure(1, det)
	one := timeCalls(matmul)
	parallel.Configure(parallel.Clamp(runtime.NumCPU()), det)
	all := timeCalls(matmul)
	parallel.Configure(threads, det)
	v["parallel.speedup_nproc"] = one.Seconds() / all.Seconds()

	arena := tensor.NewArena()
	mlp := nn.NewMLP("bench", 3*h, h, h, cfg.MLPHiddenLayers, true, rng)
	mlp.SetArena(arena)
	v["nn.mlp_fwd_ms"] = ms(timeCalls(func() {
		arena.Reset()
		mlp.Forward(a)
	}))
	both := timeCalls(func() {
		arena.Reset()
		mlp.Forward(a)
		mlp.Backward(dy)
	})
	v["nn.mlp_bwd_ms"] = ms(both) - v["nn.mlp_fwd_ms"]
	infer := mlp.Compile()
	v["nn.infer_mlp_ms"] = ms(timeCalls(func() {
		arena.Reset()
		infer.InferForward(arena, a)
	}))
}

// Calls per measurement inside the fabric world. They are fixed counts
// because every rank must make the same collective calls.
const (
	inferCalls   = 20
	inferBatch   = 8
	batchedCalls = 5
	nmpCalls     = 10
)

// fabricLayers starts the workload's own fabric (ranks, transport,
// emulated link delay) and calls the gnn layer's collective entry points
// on it directly: the engine compile, single and batched inference (what
// a serving rank runs for one request and for a full batch), and one
// message-passing layer forward and backward.
func fabricLayers(sp spec, times []float64, v map[string]float64) error {
	w, err := buildWorld(sp, times[:1])
	if err != nil {
		return err
	}
	cfg := sp.config()
	return w.sys.RunOnWith(sp.fab, meshgnn.NeighborAllToAll, sp.wire(nil), func(r *meshgnn.Rank) error {
		lead := r.ID() == 0
		model, err := meshgnn.NewModel(cfg)
		if err != nil {
			return err
		}
		t0 := time.Now()
		eng, err := meshgnn.NewInference(model)
		if err != nil {
			return err
		}
		if lead {
			v["gnn.compile_s"] = time.Since(t0).Seconds()
		}
		x := w.in[0][r.ID()]
		median1 := func(calls int, fn func()) float64 {
			fn()
			each := make([]float64, calls)
			for i := range each {
				t0 := time.Now()
				fn()
				each[i] = ms(time.Since(t0))
			}
			return median(each)
		}
		b1 := median1(inferCalls, func() { eng.Predict(r.Ctx, x) })
		xs := make([]*meshgnn.Matrix, inferBatch)
		for i := range xs {
			xs[i] = x
		}
		b8 := median1(batchedCalls, func() { eng.PredictBatch(r.Ctx, xs) })

		h := cfg.HiddenDim
		rng := rand.New(rand.NewSource(2))
		arena := tensor.NewArena()
		layer := gnn.NewNMPLayer("bench", h, cfg.MLPHiddenLayers, rng)
		layer.Overlap = cfg.Overlap
		layer.SetArena(arena)
		hx, he := tensor.New(r.Graph.NumLocal(), h), tensor.New(r.Graph.NumEdges(), h)
		for _, m := range []*tensor.Matrix{hx, he} {
			for i := range m.Data {
				m.Data[i] = rng.NormFloat64()
			}
		}
		fwd := median1(nmpCalls, func() {
			arena.Reset()
			layer.Forward(r.Ctx, hx, he)
		})
		both := median1(nmpCalls, func() {
			arena.Reset()
			xo, eo := layer.Forward(r.Ctx, hx, he)
			layer.Backward(xo, eo)
		})
		if lead {
			v["gnn.infer_b1_ms"], v["gnn.infer_b8_ms"] = b1, b8
			v["gnn.nmp_fwd_ms"], v["gnn.nmp_bwd_ms"] = fwd, both-fwd
		}
		return nil
	})
}

// bareFabric times the socket fabric itself, two ranks and no emulated
// delay: a one-element round trip and an all-reduce of the model's
// gradient size.
func bareFabric(params int, v map[string]float64) error {
	const trips, reduces = 2000, 200
	return comm.RunSockets(2, func(c *comm.Comm) error {
		one := []float64{1}
		c.Barrier()
		t0 := time.Now()
		for i := 0; i < trips; i++ {
			if c.Rank() == 0 {
				c.Send(1, 1, one)
				c.Recv(1, 1)
			} else {
				c.Recv(0, 1)
				c.Send(0, 1, one)
			}
		}
		if c.Rank() == 0 {
			v["comm.pingpong_us"] = float64(time.Since(t0).Microseconds()) / trips
		}
		buf := make([]float64, params)
		c.Barrier()
		t0 = time.Now()
		for i := 0; i < reduces; i++ {
			c.AllReduceSum(buf)
		}
		if c.Rank() == 0 {
			v["comm.allreduce_us"] = float64(time.Since(t0).Microseconds()) / reduces
		}
		return nil
	})
}
