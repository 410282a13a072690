package tensor

import "unsafe"

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
// the loop's on every rung. An edge index outside p or q panics, as an
// index outside a slice does.
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
