package main

// metricDef names one metric the benchmark reports. BENCHMARK.json lists
// the same names, units, directions and bounds; manifest_test.go keeps
// the two in step.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	bound float64
	// exact marks a per-layer count that repeats exactly from run to run
	// with the same seed; -compare asserts it.
	exact bool
}

// endToEnd is what a user of the system sees, on every workload: how long
// until it is ready, how much mesh it advances per second, and how long
// one operation takes.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "nodes_per_s", unit: "nodes/s", better: "higher", bound: 0.25},
	{name: "op_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "op_p90_ms", unit: "ms", better: "lower", bound: 0.25},
}

// perLayer is what a traced run reports, layer by layer. A metric whose
// layer is not on a workload's path reads 0 there.
var perLayer = []metricDef{
	{name: "mesh.build_s", unit: "s", better: "lower"},
	{name: "partition.build_s", unit: "s", better: "lower"},
	{name: "partition.halo_nodes", unit: "count", better: "lower", exact: true},
	{name: "graph.build_s", unit: "s", better: "lower"},
	{name: "graph.validate_s", unit: "s", better: "lower"},
	{name: "graph.edges", unit: "count", better: "lower", exact: true},

	{name: "tensor.matmul_gflops", unit: "GFLOP/s", better: "higher"},
	{name: "tensor.matmul_atb_gflops", unit: "GFLOP/s", better: "higher"},
	{name: "tensor.matmul32_gflops", unit: "GFLOP/s", better: "higher"},
	{name: "tensor.elu32_ns_per_elem", unit: "ns", better: "lower"},
	{name: "parallel.speedup_nproc", unit: "x", better: "higher"},

	{name: "nn.mlp_fwd_ms", unit: "ms", better: "lower"},
	{name: "nn.mlp_bwd_ms", unit: "ms", better: "lower"},
	{name: "nn.infer_mlp_ms", unit: "ms", better: "lower"},
	{name: "nn.allreduce_grads_ms", unit: "ms", better: "lower"},
	{name: "nn.optimizer_ms", unit: "ms", better: "lower"},

	{name: "gnn.forward_ms", unit: "ms", better: "lower"},
	{name: "gnn.loss_ms", unit: "ms", better: "lower"},
	{name: "gnn.backward_ms", unit: "ms", better: "lower"},
	{name: "gnn.nmp_fwd_ms", unit: "ms", better: "lower"},
	{name: "gnn.nmp_bwd_ms", unit: "ms", better: "lower"},
	{name: "gnn.infer_b1_ms", unit: "ms", better: "lower"},
	{name: "gnn.infer_b8_ms", unit: "ms", better: "lower"},
	{name: "gnn.compile_s", unit: "s", better: "lower"},
	{name: "gnn.allocs_per_op", unit: "count", better: "lower"},

	{name: "comm.msgs_per_op", unit: "count", better: "lower"},
	{name: "comm.bytes_per_op", unit: "B", better: "lower"},
	{name: "comm.allreduces_per_op", unit: "count", better: "lower", exact: true},
	{name: "comm.halo_ms_per_op", unit: "ms", better: "lower"},
	{name: "comm.halo_exposed_ms_per_op", unit: "ms", better: "lower"},
	{name: "comm.send_ms_per_op", unit: "ms", better: "lower"},
	{name: "comm.time_share", unit: "share", better: "lower"},
	{name: "comm.msgs_per_eval", unit: "count", better: "lower", exact: true},
	{name: "comm.bytes_per_eval", unit: "B", better: "lower", exact: true},
	{name: "comm.pingpong_us", unit: "us", better: "lower"},
	{name: "comm.allreduce_us", unit: "us", better: "lower"},

	{name: "serve.batch_mean", unit: "req/eval", better: "higher"},
	{name: "serve.overhead_ms", unit: "ms", better: "lower"},
	{name: "serve.start_s", unit: "s", better: "lower"},
	{name: "serve.close_s", unit: "s", better: "lower"},

	{name: "loadgen.sent", unit: "count", better: "higher", exact: true},
	{name: "loadgen.late_p95_ms", unit: "ms", better: "lower"},
	{name: "loadgen.inflight_max", unit: "count", better: "lower"},
	{name: "loadgen.slo_miss_share", unit: "share", better: "lower"},

	{name: "host.spin_ms", unit: "ms", better: "lower"},
	{name: "host.cpu_ms_per_op", unit: "ms", better: "lower"},
	{name: "host.peak_rss_mb", unit: "MB", better: "lower"},
	{name: "host.live_heap_mb", unit: "MB", better: "lower"},

	{name: "trace.overhead_share", unit: "share", better: "lower"},
	{name: "trace.spans", unit: "count", better: "lower"},
}

// measured is one reported value.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object a run prints as the last line of its standard
// output.
type result struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
}

// fill builds the metrics map for defs from values, so that every listed
// metric is reported, with its declared unit.
func fill(defs []metricDef, values map[string]float64) map[string]measured {
	out := make(map[string]measured, len(defs))
	for _, d := range defs {
		out[d.name] = measured{Value: values[d.name], Unit: d.unit}
	}
	return out
}
