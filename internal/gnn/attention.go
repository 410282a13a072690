package gnn

import (
	"math"
	"math/rand"

	"meshgnn/internal/comm"
	"meshgnn/internal/nn"
	"meshgnn/internal/tensor"
)

// AttentionLayer is a consistent graph-attention message passing layer.
// The paper notes (end of Sec. II-B) that the halo-node construction
// "can be generally applied to extend non-local operations in other
// layers (e.g., attention layers over nodes)"; this layer realizes that
// claim. It replaces the degree-scaled sum aggregation of the NMP layer
// with an edge-softmax weighted aggregation
//
//	a_i = Σ_{j∈N(i)} softmax_j(s_ij) · v_ij,
//
// where scores s_ij and values v_ij come from MLPs over (x_i, x_j, e_ij).
// Distributed consistency requires the softmax normalization to span node
// i's *full* neighborhood across ranks, which takes three halo-synced
// quantities:
//
//  1. the per-node score maximum (for a stable softmax), combined by max;
//  2. the exp-weighted value sum (numerator), combined by sum with the
//     1/d_ij duplicate-edge scaling;
//  3. the exp sum (denominator), likewise.
//
// Numerator and denominator are packed into a single (H+1)-column
// exchange, so the layer costs two halo exchanges forward and one adjoint
// exchange backward.
type AttentionLayer struct {
	ValueMLP *nn.MLP // (x_dst ‖ x_src ‖ e) → H
	ScoreMLP *nn.MLP // (x_dst ‖ x_src ‖ e) → 1
	NodeMLP  *nn.MLP // (a ‖ x) → H

	// caches for backward
	rc     *RankContext
	edgeIn *tensor.Matrix
	vals   *tensor.Matrix // v_ij
	z      []float64      // exp(s_ij - m*_i) / d_ij
	att    *tensor.Matrix // a_i
	den    []float64      // synced denominator Z_i
}

// NewAttentionLayer builds the layer's MLPs.
func NewAttentionLayer(name string, hidden, mlpHidden int, rng *rand.Rand) *AttentionLayer {
	return &AttentionLayer{
		ValueMLP: nn.NewMLP(name+".value", 3*hidden, hidden, hidden, mlpHidden, true, rng),
		ScoreMLP: nn.NewMLP(name+".score", 3*hidden, hidden, 1, mlpHidden, false, rng),
		NodeMLP:  nn.NewMLP(name+".node", 2*hidden, hidden, hidden, mlpHidden, true, rng),
	}
}

// Forward applies the layer; x is NumLocal×H, e is NumEdges×H. Returns
// updated node and edge features (edges carry the values onward, with a
// residual connection, as in the NMP layer).
func (l *AttentionLayer) Forward(rc *RankContext, x, e *tensor.Matrix) (xOut, eOut *tensor.Matrix) {
	l.rc = rc
	g := rc.Graph
	h := x.Cols
	ne := g.NumEdges()

	// Shared edge-input assembly (x_i ‖ x_j ‖ e_ij).
	l.edgeIn = tensor.New(ne, 3*h)
	for k, ed := range g.Edges {
		row := l.edgeIn.Row(k)
		copy(row[:h], x.Row(ed[1]))
		copy(row[h:2*h], x.Row(ed[0]))
		copy(row[2*h:], e.Row(k))
	}
	l.vals = l.ValueMLP.Forward(l.edgeIn)
	tensor.AddScaled(l.vals, 1, e) // residual values, also the edge output
	scores := l.ScoreMLP.Forward(l.edgeIn)

	// (1) Globally consistent per-node score maximum. Local max, halo
	// swap, max-combine. Coincident copies agree on shared edges'
	// scores, so the synced maximum equals the unpartitioned one.
	maxs := tensor.New(g.NumLocal(), 1)
	for i := range maxs.Data {
		maxs.Data[i] = math.Inf(-1)
	}
	for k, ed := range g.Edges {
		if s := scores.Data[k]; s > maxs.Data[ed[1]] {
			maxs.Data[ed[1]] = s
		}
	}
	haloMax := tensor.New(g.NumHalo(), 1)
	for i := range haloMax.Data {
		haloMax.Data[i] = math.Inf(-1)
	}
	rc.Ex.Exchange(rc.Comm, comm.Forward, maxs, haloMax, 1)
	for hr, owner := range g.HaloOwner {
		if haloMax.Data[hr] > maxs.Data[owner] {
			maxs.Data[owner] = haloMax.Data[hr]
		}
	}
	// Isolated nodes (no edges anywhere) keep a finite max of 0.
	for i, v := range maxs.Data {
		if math.IsInf(v, -1) {
			maxs.Data[i] = 0
		}
	}

	// (2)+(3) Packed numerator/denominator aggregation with the same
	// duplicate-edge scaling as Eq. 4b.
	l.z = make([]float64, ne)
	packed := tensor.New(g.NumLocal(), h+1)
	for k, ed := range g.Edges {
		i := ed[1]
		z := math.Exp(scores.Data[k]-maxs.Data[i]) / g.EdgeDegree[k]
		l.z[k] = z
		dst := packed.Row(i)
		v := l.vals.Row(k)
		for c := 0; c < h; c++ {
			dst[c] += z * v[c]
		}
		dst[h] += z
	}
	haloPacked := tensor.New(g.NumHalo(), h+1)
	rc.Ex.Exchange(rc.Comm, comm.Forward, packed, haloPacked, 1)
	for hr, owner := range g.HaloOwner {
		dst := packed.Row(owner)
		for c, v := range haloPacked.Row(hr) {
			dst[c] += v
		}
	}

	// a_i = num/den.
	l.att = tensor.New(g.NumLocal(), h)
	l.den = make([]float64, g.NumLocal())
	for i := 0; i < g.NumLocal(); i++ {
		row := packed.Row(i)
		den := row[h]
		if den == 0 {
			den = 1 // isolated node: zero attention output
		}
		l.den[i] = den
		out := l.att.Row(i)
		for c := 0; c < h; c++ {
			out[c] = row[c] / den
		}
	}

	// Node update with residual, as in the NMP layer.
	nodeIn := tensor.HCat(l.att, x)
	xOut = l.NodeMLP.Forward(nodeIn)
	tensor.AddScaled(xOut, 1, x)
	return xOut, l.vals
}

// Backward propagates output gradients through the attention layer. The
// softmax max-shift is treated as constant (its gradient vanishes in the
// softmax quotient), so only the packed numerator/denominator sync needs
// an adjoint exchange.
func (l *AttentionLayer) Backward(dxOut, deOut *tensor.Matrix) (dx, de *tensor.Matrix) {
	rc := l.rc
	g := rc.Graph
	h := dxOut.Cols
	ne := g.NumEdges()

	// Node update backward.
	dNodeIn := l.NodeMLP.Backward(dxOut)
	parts := tensor.SplitCols(dNodeIn, h, h)
	dAtt, dxFromNode := parts[0], parts[1]
	dx = dxOut.Clone()
	tensor.AddScaled(dx, 1, dxFromNode)

	// a = num/Z: dNum_c = dAtt_c / Z; dDen = -(Σ_c dAtt_c · a_c)/Z.
	dPacked := tensor.New(g.NumLocal(), h+1)
	for i := 0; i < g.NumLocal(); i++ {
		z := l.den[i]
		da := dAtt.Row(i)
		a := l.att.Row(i)
		dst := dPacked.Row(i)
		var dDen float64
		for c := 0; c < h; c++ {
			dst[c] = da[c] / z
			dDen -= da[c] * a[c] / z
		}
		dst[h] = dDen
	}

	// Sync backward: each halo copy's gradient is its owner's packed
	// gradient; the adjoint exchange accumulates it into the neighbors'
	// local packed gradients.
	dHalo := tensor.New(g.NumHalo(), h+1)
	for hr, owner := range g.HaloOwner {
		copy(dHalo.Row(hr), dPacked.Row(owner))
	}
	rc.Ex.Exchange(rc.Comm, comm.Adjoint, dHalo, dPacked, 1)

	// Per-edge gradients: num_c = Σ z v_c, den = Σ z.
	dVals := deOut.Clone() // direct edge-output path
	dScores := tensor.New(ne, 1)
	for k, ed := range g.Edges {
		i := ed[1]
		dp := dPacked.Row(i)
		z := l.z[k]
		v := l.vals.Row(k)
		dvRow := dVals.Row(k)
		var dz float64
		for c := 0; c < h; c++ {
			dvRow[c] += z * dp[c]
			dz += v[c] * dp[c]
		}
		dz += dp[h]
		// z = exp(s - m)/d: ds = z · dz.
		dScores.Data[k] = z * dz
	}

	// MLP backwards; both share the edge input, so their input
	// gradients accumulate.
	dEdgeIn := l.ValueMLP.Backward(dVals)
	dEdgeIn2 := l.ScoreMLP.Backward(dScores)
	tensor.AddScaled(dEdgeIn, 1, dEdgeIn2)

	eparts := tensor.SplitCols(dEdgeIn, h, h, h)
	de = dVals.Clone() // residual: vals = MLP(...) + e
	tensor.AddScaled(de, 1, eparts[2])
	for k, ed := range g.Edges {
		dst1 := dx.Row(ed[1])
		for j, v := range eparts[0].Row(k) {
			dst1[j] += v
		}
		dst0 := dx.Row(ed[0])
		for j, v := range eparts[1].Row(k) {
			dst0[j] += v
		}
	}
	return dx, de
}

// Params returns the trainable parameters.
func (l *AttentionLayer) Params() []*nn.Param {
	out := append([]*nn.Param{}, l.ValueMLP.Params()...)
	out = append(out, l.ScoreMLP.Params()...)
	return append(out, l.NodeMLP.Params()...)
}
