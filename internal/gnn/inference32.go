package gnn

import (
	"meshgnn/internal/nn"
	"meshgnn/internal/tensor"
)

// Float32 serving engine (Config.Precision == Float32). float32 is an
// element type of the one Eq. 4 schedule (nmp.go), not a second engine
// design: the processors are forwardNMP and its tasks instantiated at
// float32, and this file holds only what the float32 user supplies —
// single-precision MLP twins, a float32 arena, and the staging that takes
// aggregates to the float64 wire and back:
//
//   - parameters down-convert ONCE at NewInference (nn.Compile32), with
//     every weight above the packed-GEMM threshold pre-packed so serving
//     GEMMs skip the pack pass;
//   - the static-edge encoding is computed in float32 once per binding;
//   - activations live in a float32 arena (half the bytes, and the
//     GEMM-bound serving path moves half the memory traffic);
//   - the halo exchange stages through two persistent float64 matrices,
//     because the transport layer's element type is float64: aggregates
//     promote before the swap and halo payloads demote after, which keeps
//     the exchange plans, transports, and the overlap split point those of
//     the float64 users.
//
// Predict keeps its float64 signature — inputs demote into a persistent
// buffer, outputs promote into the engine's double-buffered float64
// prediction — so rollouts, drivers, and the serving facade are
// precision-agnostic. The result approximates the float64 engine to a
// tolerance (gated in the parity tests) rather than bitwise, but remains
// bitwise-reproducible across thread counts, transports, and overlap
// settings: every f32 kernel partitions disjoint output rows with a fixed
// per-row accumulation order, and the exchange semantics are unchanged.
type engine32 struct {
	nodeEnc, edgeEnc, dec *nn.InferMLP32
	procs                 []*inferNMPf32

	arena      *tensor.Arena32
	staticHe32 *tensor.Matrix32 // cached f32 edge encoding (EdgeFeatures4)
	x32        *tensor.Matrix32 // persistent input demote buffer

	// f64 staging for the halo exchange (see the package comment above);
	// bound per graph. haloStage is allocated zeroed and only ever written
	// by the exchanger, so a NoExchange run demotes exact zeros into the
	// f32 halo buffer — the same "contributes nothing" contract as the
	// float64 path's zeroed halo workspace.
	aggStage, haloStage *tensor.Matrix
}

func compile32(m *Model) *engine32 {
	f := &engine32{
		nodeEnc: m.NodeEncoder.Compile32(),
		edgeEnc: m.EdgeEncoder.Compile32(),
		dec:     m.Decoder.Compile32(),
		arena:   tensor.NewArena32(),
	}
	for _, l := range m.Layers {
		// Validate rejects Attention+Float32, so every processor is an
		// NMPLayer here.
		nmp := l.(*NMPLayer)
		f.procs = append(f.procs, &inferNMPf32{
			f:          f,
			edgeMLP:    nmp.EdgeMLP.Compile32(),
			nodeMLP:    nmp.NodeMLP.Compile32(),
			disableDeg: nmp.DisableDegreeScaling,
			overlap:    m.Config.Overlap || nmp.Overlap,
		})
	}
	return f
}

func (e *Inference) bind32(rc *RankContext, x *tensor.Matrix) {
	f := e.f32
	f.arena.Clear()
	e.arena.Clear() // f64 staging arena (EdgeFeatures7 assembly)
	e.lastGraph, e.lastRows, e.lastCols = rc.Graph, x.Rows, x.Cols
	g := rc.Graph
	h := e.Config.HiddenDim
	f.aggStage = tensor.New(g.NumLocal(), h)
	f.haloStage = tensor.New(g.NumHalo(), h)
	f.x32 = tensor.New32(x.Rows, x.Cols)
	f.staticHe32 = nil
	if e.Config.EdgeMode == EdgeFeatures4 {
		f.staticHe32 = f.edgeEnc.InferForward32(nil, tensor.Demote32(rc.StaticEdge))
	}
}

func (e *Inference) predict32(rc *RankContext, x *tensor.Matrix) *tensor.Matrix {
	f := e.f32
	f.arena.Reset()
	tensor.DemoteInto32(f.x32, x)
	hx := f.nodeEnc.InferForward32(f.arena, f.x32)
	he := f.staticHe32
	if he == nil {
		e.arena.Reset()
		ein64 := rc.edgeInputs7(x, e.arena, 1)
		ein := f.arena.Get(ein64.Rows, ein64.Cols)
		tensor.DemoteInto32(ein, ein64)
		he = f.edgeEnc.InferForward32(f.arena, ein)
	}
	for _, p := range f.procs {
		hx, he = forwardNMP(p, &p.fwd, rc, hx, he, 1, p.overlap, p.disableDeg)
	}
	y := f.dec.InferForward32(f.arena, hx)
	e.outIdx = 1 - e.outIdx
	out := e.outs[e.outIdx]
	if out == nil || out.Rows != y.Rows || out.Cols != y.Cols {
		out = tensor.New(y.Rows, y.Cols)
		e.outs[e.outIdx] = out
	}
	tensor.PromoteInto64(out, y)
	return out
}

// inferNMPf32 is the float32 serving adapter of the Eq. 4 schedule:
// single-precision MLPs, workspaces from the engine's float32 arena, and
// the halo swap staged through the engine's float64 matrices.
type inferNMPf32 struct {
	f                *engine32
	edgeMLP, nodeMLP *nn.InferMLP32
	disableDeg       bool
	overlap          bool

	fwd nmpTasks[float32]
}

func (l *inferNMPf32) setOverlap(on bool) { l.overlap = on }

func (l *inferNMPf32) get(rows, cols int, zeroed bool) *tensor.Matrix32 {
	if zeroed {
		return l.f.arena.GetZeroed(rows, cols)
	}
	return l.f.arena.Get(rows, cols)
}

func (*inferNMPf32) view(m *tensor.Matrix32) rowsOf[float32] {
	return rowsOf[float32]{m.Data, m.Cols}
}

func (l *inferNMPf32) runEdge(in *tensor.Matrix32) *tensor.Matrix32 {
	return l.edgeMLP.InferForward32(l.f.arena, in)
}

func (l *inferNMPf32) runNode(in *tensor.Matrix32) *tensor.Matrix32 {
	return l.nodeMLP.InferForward32(l.f.arena, in)
}

func (*inferNMPf32) addInto(dst, src *tensor.Matrix32) { tensor.AddScaled32(dst, 1, src) }

// toWire promotes the aggregates into the float64 staging. The exchanger
// packs boundary rows only; under the phased split the interior rows of
// the promoted copy are stale, and the plan never reads them.
func (l *inferNMPf32) toWire(agg, _ *tensor.Matrix32) (src, dst *tensor.Matrix) {
	tensor.PromoteInto64(l.f.aggStage, agg)
	return l.f.aggStage, l.f.haloStage
}

func (l *inferNMPf32) fromWire(halo *tensor.Matrix32) { tensor.DemoteInto32(halo, l.f.haloStage) }
