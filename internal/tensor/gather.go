package tensor

import "unsafe"

// GatherEdgeRows assembles the edge stage's input rows: for each edge k of
// edges, row k of dst (3h wide) is x[edges[k][1]] ‖ x[edges[k][0]] ‖ e[k],
// the receiver's row, the sender's and the edge's own, x and e being h
// wide. It only moves data, so NaN payloads and signed zeros arrive bit
// for bit. On the SIMD rungs one kernel call (gather_amd64.s) moves every
// edge, h·sizeof(T) bytes a segment in 64-byte zmm (avx512) or 32-byte
// ymm (avx2) moves with a masked tail; the go rung copies. An edge index
// outside x panics, as the copies would.
//
// The avx512 rung has a kernel of its own because a segment of up to 64
// bytes — every one of SmallConfig's — is a single masked zmm move there,
// straight-line, where the ymm kernel loops: on a 2-vCPU Xeon (KVM) the
// float64 h = 8 row costs 2.7–3.0 ns against the ymm kernel's 8.7–15.8
// (BenchmarkGatherEdgeRows), and the ymm kernel in its place lost 18 of
// 20 alternated serve_sat pairs, 5–9 % of nodes_per_s in the median.
func GatherEdgeRows[T float](dst, x, e []T, edges [][2]int, h int) {
	n := len(edges)
	if n == 0 || h == 0 {
		return
	}
	_, _ = dst[3*h*n-1], e[h*n-1] // the kernels write and read up to here unchecked
	x = x[:len(x):len(x)]         // a row past len(x) panics even within its capacity
	k := 0
	if nx := len(x) / h; tier >= tierAVX2 && nx > 0 {
		rowBytes := int64(h) * int64(unsafe.Sizeof(x[0]))
		xp, ep, dp := unsafe.Pointer(&x[0]), unsafe.Pointer(&e[0]), unsafe.Pointer(&dst[0])
		if tier == tierAVX512 {
			k = int(edgeRowsCopyx16(int64(n), rowBytes, int64(nx), &edges[0], xp, ep, dp))
		} else {
			k = int(edgeRowsCopy(int64(n), rowBytes, int64(nx), &edges[0], xp, ep, dp))
		}
	}
	// The go rung, and the edge a kernel stopped at, whose copy panics.
	for ; k < n; k++ {
		row := dst[3*h*k : 3*h*(k+1)]
		recv, send := edges[k][1], edges[k][0]
		copy(row[:h], x[recv*h:(recv+1)*h])
		copy(row[h:2*h], x[send*h:(send+1)*h])
		copy(row[2*h:], e[k*h:(k+1)*h])
	}
}

// GatherAddEdgeRows adds the node projections of the edge stage's first
// layer into its pre-activation rows: for each edge k of edges, row k of
// dst (h wide) becomes
//
//	dst[k] + (p[edges[k][1]] + q[edges[k][0]])
//
// per element, the receiver's row of p plus the sender's row of q rounded
// once, then added to the row and rounded again. p and q are h wide. The
// loop at the end of the function is the definition and the go rung; on
// the SIMD rungs one kernel call (gather_amd64.s) does every edge in
// 64-byte zmm (avx512) or 32-byte ymm (avx2) vectors with a masked tail,
// each element in its own lane through the same two adds, so the bits are
// the loop's on every rung. An edge index outside p or q panics, as in
// GatherEdgeRows.
func GatherAddEdgeRows[T float](dst, p, q []T, edges [][2]int, h int) {
	n := len(edges)
	if n == 0 || h == 0 {
		return
	}
	_ = dst[h*n-1]        // the kernels write up to here unchecked
	p = p[:len(p):len(p)] // a row past len(p) panics even within its capacity
	q = q[:len(q):len(q)]
	k := 0
	if nx := min(len(p), len(q)) / h; tier >= tierAVX2 && nx > 0 {
		rowBytes := int64(h) * int64(unsafe.Sizeof(p[0]))
		pp, qp, dp := unsafe.Pointer(&p[0]), unsafe.Pointer(&q[0]), unsafe.Pointer(&dst[0])
		_, single := any(p[0]).(float32)
		switch {
		case single && tier == tierAVX512:
			k = int(edgeRowsAdd32x16(int64(n), rowBytes, int64(nx), &edges[0], pp, qp, dp))
		case single:
			k = int(edgeRowsAdd32(int64(n), rowBytes, int64(nx), &edges[0], pp, qp, dp))
		case tier == tierAVX512:
			k = int(edgeRowsAdd64x8(int64(n), rowBytes, int64(nx), &edges[0], pp, qp, dp))
		default:
			k = int(edgeRowsAdd64(int64(n), rowBytes, int64(nx), &edges[0], pp, qp, dp))
		}
	}
	// The go rung, and the edge a kernel stopped at, whose slicing panics.
	for ; k < n; k++ {
		row := dst[h*k : h*(k+1)]
		recv, send := edges[k][1], edges[k][0]
		pi, qj := p[recv*h : (recv+1)*h][:len(row)], q[send*h : (send+1)*h][:len(row)]
		for j := range row {
			row[j] += pi[j] + qj[j]
		}
	}
}
