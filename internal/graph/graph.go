// Package graph constructs distributed mesh-based graphs from a
// spectral-element mesh and a domain decomposition, mirroring the
// NekRS-GNN plugin in the paper's workflow (Fig. 1): it extracts graph
// connectivity and coincident-node IDs from the solver mesh and emits the
// per-rank structures the consistent GNN consumes.
//
// The key artifacts per rank are (paper Figs. 3 and 4):
//
//   - the reduced local graph: unique global node IDs after local
//     coincident collapse, with deduplicated intra-element edges;
//   - the halo plan: for every neighboring rank, which local rows to send
//     and which halo rows the reply fills, ordered by global node ID so
//     the pattern is symmetric across each pair of ranks;
//   - degree factors: d_i (number of ranks owning node i) and d_ij
//     (number of ranks owning edge i→j), the scaling factors that make the
//     distributed aggregation and loss arithmetically consistent with the
//     unpartitioned graph (Eqs. 4b and 6).
package graph

import (
	"fmt"
	"math"
	"sort"

	"meshgnn/internal/comm"
	"meshgnn/internal/mesh"
	"meshgnn/internal/partition"
	"meshgnn/internal/tensor"
)

// Local is one rank's sub-graph in reduced (locally collapsed) form.
type Local struct {
	// Rank is the owning rank index.
	Rank int
	// GlobalIDs maps each local row to its global node ID, in ascending
	// order (so local ordering is the restriction of the global one).
	GlobalIDs []int64
	// Coords holds the physical node positions, NumLocal()×3.
	Coords *tensor.Matrix
	// Edges lists directed edges as (src,dst) pairs of local indices,
	// deduplicated and sorted by (dst,src) so aggregation walks
	// receiver-contiguously.
	Edges [][2]int
	// EdgeDegree[k] is d_ij for Edges[k]: the number of ranks whose
	// sub-graph contains this edge (1 for interior edges, 2 on shared
	// faces, more along shared element lines/corners).
	EdgeDegree []float64
	// InvEdgeDegree[k] is 1/EdgeDegree[k], the weight the aggregation
	// (4b) and its adjoint scale Edges[k] by, divided once at build.
	InvEdgeDegree []float64
	// NodeDegree[i] is d_i: the number of ranks owning local node i.
	NodeDegree []float64
	// Plan is the halo exchange pattern; halo rows are indexed
	// separately from local rows, 0..TotalHalo-1.
	Plan *comm.HaloPlan
	// HaloOwner[h] is the local row holding the same global node as
	// halo row h; the synchronization step accumulates halo aggregates
	// into their owners.
	HaloOwner []int
	// RecvStart is the receiver-grouped CSR over Edges: because Edges is
	// sorted by (dst,src), the edges arriving at local node i occupy
	// Edges[RecvStart[i]:RecvStart[i+1]]. The aggregation kernels use it
	// to partition scatter-adds by receiver, so intra-rank workers never
	// contend on a destination row.
	RecvStart []int
	// SendPerm lists edge indices sorted by (src,dst) and SendStart is
	// the matching CSR: the edges leaving local node i are
	// SendPerm[SendStart[i]:SendStart[i+1]], each slice ascending in the
	// canonical edge order. The backward pass uses it to scatter
	// sender-side gradients by owner, again without atomics.
	SendPerm  []int
	SendStart []int
	// HaloPerm lists halo-row indices grouped by owning local row and
	// HaloStart is the matching CSR: the halo copies of local node i are
	// HaloPerm[HaloStart[i]:HaloStart[i+1]], ascending in halo-row order.
	// The synchronization step (Eq. 4d) uses it to absorb halo aggregates
	// owner-parallel without atomics, in the same per-owner order as the
	// serial halo-row sweep — so the sum is bitwise-identical.
	HaloPerm  []int
	HaloStart []int
	// NodeOrder is the boundary-first permutation of local rows:
	// NodeOrder[:NumBoundary] are the boundary nodes — the rows shared
	// with other ranks (NodeDegree > 1), exactly the rows the halo plan
	// sends and the rows owning halo copies — in ascending row order, and
	// NodeOrder[NumBoundary:] are the interior rows, also ascending. The
	// overlapped NMP pipeline aggregates the boundary sub-range first, puts
	// its halo payloads on the wire, and hides the transfer behind the
	// interior sub-range. Because the per-row arithmetic is untouched and
	// the two sub-ranges are disjoint, the split changes no output bit.
	NodeOrder   []int
	NumBoundary int
	// EdgeOrder is the matching boundary-first permutation of edge
	// indices: EdgeOrder[:NumBoundaryEdges] are the edges received by
	// boundary nodes — the edges whose aggregates cross rank boundaries —
	// grouped by receiver in NodeOrder order (each receiver's run is its
	// RecvStart range, preserving the canonical per-receiver edge order),
	// and EdgeOrder[NumBoundaryEdges:] are the interior-receiver edges.
	// The backward pipeline gathers interior edge gradients while the
	// adjoint exchange is still accumulating into boundary rows.
	EdgeOrder        []int
	NumBoundaryEdges int
	// GlobalNodes is the unique node count of the full graph, for
	// convenience in loss normalization checks.
	GlobalNodes int64
}

// NumLocal returns the number of local (non-halo) nodes.
func (l *Local) NumLocal() int { return len(l.GlobalIDs) }

// NumEdges returns the number of directed local edges.
func (l *Local) NumEdges() int { return len(l.Edges) }

// NumHalo returns the number of halo rows.
func (l *Local) NumHalo() int { return len(l.HaloOwner) }

// edgeKey identifies an undirected edge by its global endpoints, lo < hi.
type edgeKey struct{ lo, hi int64 }

func makeEdgeKey(a, b int64) edgeKey {
	if a < b {
		return edgeKey{a, b}
	}
	return edgeKey{b, a}
}

// BuildAll constructs the local graph for every rank of the partition.
// It plays the role of the mesh preprocessor: a serial setup step with
// global visibility, whose outputs are then consumed rank-locally.
func BuildAll(box *mesh.Box, part partition.Partition) ([]*Local, error) {
	r := part.NumRanks()
	locals := make([]*Local, r)

	// Pass 1: per-rank unique node sets and deduplicated edge sets.
	type rankEdges struct {
		gids  []int64
		index map[int64]int
		edges map[[2]int64]bool
	}
	perRank := make([]rankEdges, r)
	nodeOwners := make(map[int64][]int)
	edgeOwners := make(map[edgeKey]int)
	elemEdges := box.ElementEdges()
	var idBuf []int64
	for rank := 0; rank < r; rank++ {
		re := rankEdges{edges: make(map[[2]int64]bool)}
		seen := make(map[int64]bool)
		for _, el := range part.Elements(rank) {
			e, f, g := box.ElementCoords(el)
			idBuf = box.ElementNodeIDs(idBuf[:0], e, f, g)
			for _, id := range idBuf {
				if !seen[id] {
					seen[id] = true
					re.gids = append(re.gids, id)
				}
			}
			for _, le := range elemEdges {
				a, b := idBuf[le[0]], idBuf[le[1]]
				if a == b {
					// Periodic wrap inside a single spanning element
					// can identify the two endpoints; such degenerate
					// edges are dropped.
					continue
				}
				re.edges[[2]int64{a, b}] = true
			}
		}
		sort.Slice(re.gids, func(i, j int) bool { return re.gids[i] < re.gids[j] })
		re.index = make(map[int64]int, len(re.gids))
		for i, id := range re.gids {
			re.index[id] = i
			nodeOwners[id] = append(nodeOwners[id], rank)
		}
		for e := range re.edges {
			if e[0] < e[1] { // count each undirected edge once per rank
				edgeOwners[makeEdgeKey(e[0], e[1])]++
			}
		}
		perRank[rank] = re
	}

	// Pass 2: assemble per-rank structures.
	for rank := 0; rank < r; rank++ {
		re := perRank[rank]
		l := &Local{
			Rank:        rank,
			GlobalIDs:   re.gids,
			GlobalNodes: box.NumNodes(),
		}

		// Coordinates.
		l.Coords = tensor.New(len(re.gids), 3)
		for i, id := range re.gids {
			x, y, z := box.NodeCoord(id)
			l.Coords.Set(i, 0, x)
			l.Coords.Set(i, 1, y)
			l.Coords.Set(i, 2, z)
		}

		// Edges in deterministic (dst,src) order with degrees.
		l.Edges = make([][2]int, 0, len(re.edges))
		for e := range re.edges {
			l.Edges = append(l.Edges, [2]int{re.index[e[0]], re.index[e[1]]})
		}
		sort.Slice(l.Edges, func(i, j int) bool {
			if l.Edges[i][1] != l.Edges[j][1] {
				return l.Edges[i][1] < l.Edges[j][1]
			}
			return l.Edges[i][0] < l.Edges[j][0]
		})
		l.EdgeDegree = make([]float64, len(l.Edges))
		l.InvEdgeDegree = make([]float64, len(l.Edges))
		for k, e := range l.Edges {
			key := makeEdgeKey(re.gids[e[0]], re.gids[e[1]])
			deg := edgeOwners[key]
			if deg < 1 {
				return nil, fmt.Errorf("graph: rank %d edge %v missing from owner map", rank, e)
			}
			l.EdgeDegree[k] = float64(deg)
			l.InvEdgeDegree[k] = 1 / float64(deg)
		}

		// Node degrees.
		l.NodeDegree = make([]float64, len(re.gids))
		for i, id := range re.gids {
			l.NodeDegree[i] = float64(len(nodeOwners[id]))
		}

		// Halo plan: for every neighboring rank, the sorted shared
		// global IDs define both the send rows (local indices here) and
		// the receive order (halo rows allocated consecutively).
		sharedWith := make(map[int][]int64)
		for _, id := range re.gids {
			owners := nodeOwners[id]
			if len(owners) == 1 {
				continue
			}
			for _, other := range owners {
				if other != rank {
					sharedWith[other] = append(sharedWith[other], id)
				}
			}
		}
		neighbors := make([]int, 0, len(sharedWith))
		for nb := range sharedWith {
			neighbors = append(neighbors, nb)
		}
		sort.Ints(neighbors)
		plan := &comm.HaloPlan{Neighbors: neighbors}
		haloRow := 0
		for _, nb := range neighbors {
			ids := sharedWith[nb]
			sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
			send := make([]int, len(ids))
			recv := make([]int, len(ids))
			for k, id := range ids {
				send[k] = re.index[id]
				recv[k] = haloRow
				l.HaloOwner = append(l.HaloOwner, re.index[id])
				haloRow++
			}
			plan.SendIdx = append(plan.SendIdx, send)
			plan.RecvIdx = append(plan.RecvIdx, recv)
		}
		l.Plan = plan
		l.buildCSR()
		locals[rank] = l
	}
	return locals, nil
}

// buildCSR derives the receiver- and sender-grouped edge indexes from the
// canonical (dst,src)-sorted edge list. Counting sort keeps SendPerm
// stable — within one source node the canonical edge order is preserved —
// so every CSR walk visits edges in a deterministic order.
func (l *Local) buildCSR() {
	n := l.NumLocal()
	l.RecvStart = make([]int, n+1)
	l.SendStart = make([]int, n+1)
	for _, e := range l.Edges {
		l.RecvStart[e[1]+1]++
		l.SendStart[e[0]+1]++
	}
	for i := 0; i < n; i++ {
		l.RecvStart[i+1] += l.RecvStart[i]
		l.SendStart[i+1] += l.SendStart[i]
	}
	l.SendPerm = make([]int, len(l.Edges))
	fill := make([]int, n)
	copy(fill, l.SendStart[:n])
	for k, e := range l.Edges {
		l.SendPerm[fill[e[0]]] = k
		fill[e[0]]++
	}

	// Owner-grouped halo index: counting sort of halo rows by owner keeps
	// each owner's halo rows in ascending halo-row order, matching the
	// serial absorb sweep bit-for-bit.
	l.HaloStart = make([]int, n+1)
	for _, owner := range l.HaloOwner {
		l.HaloStart[owner+1]++
	}
	for i := 0; i < n; i++ {
		l.HaloStart[i+1] += l.HaloStart[i]
	}
	l.HaloPerm = make([]int, len(l.HaloOwner))
	hfill := make([]int, n)
	copy(hfill, l.HaloStart[:n])
	for hr, owner := range l.HaloOwner {
		l.HaloPerm[hfill[owner]] = hr
		hfill[owner]++
	}

	// Interior/boundary decomposition: boundary-first node permutation
	// (shared rows ascending, then interior rows ascending) and the
	// receiver-grouped edge permutation it induces through RecvStart.
	l.NodeOrder = make([]int, n)
	nb := 0
	for i := 0; i < n; i++ {
		if l.NodeDegree[i] > 1 {
			l.NodeOrder[nb] = i
			nb++
		}
	}
	l.NumBoundary = nb
	pos := nb
	for i := 0; i < n; i++ {
		if l.NodeDegree[i] <= 1 {
			l.NodeOrder[pos] = i
			pos++
		}
	}
	l.EdgeOrder = make([]int, len(l.Edges))
	pos = 0
	for ord, i := range l.NodeOrder {
		for k := l.RecvStart[i]; k < l.RecvStart[i+1]; k++ {
			l.EdgeOrder[pos] = k
			pos++
		}
		if ord == nb-1 {
			// Total in-degree of the boundary prefix.
			l.NumBoundaryEdges = pos
		}
	}
}

// BuildSingle constructs the unpartitioned R=1 graph: RCB at R=1 puts
// every element on rank 0, in element-ID order.
func BuildSingle(box *mesh.Box) (*Local, error) {
	p, err := partition.NewRCB(box, 1)
	if err != nil {
		return nil, err
	}
	locals, err := BuildAll(box, p)
	if err != nil {
		return nil, err
	}
	return locals[0], nil
}

// Stats converts the local graph into the partition statistics format,
// used to cross-validate the analytic Table II fast path.
func (l *Local) Stats() partition.RankStats {
	return partition.RankStats{
		LocalNodes: int64(l.NumLocal()),
		HaloNodes:  int64(l.NumHalo()),
		Neighbors:  len(l.Plan.Neighbors),
	}
}

// StaticEdgeFeatures returns the geometry-derived edge attributes: the
// relative position vector dst-src (minimum-image for periodic axes) and
// its magnitude, one row per directed edge — the 4-column static part of
// the paper's edge-feature initialization. Periodicity uses the
// minimum-image convention so edges crossing the periodic boundary carry
// the short displacement.
func (l *Local) StaticEdgeFeatures(box *mesh.Box) *tensor.Matrix {
	out := tensor.New(len(l.Edges), 4)
	ext := [3]float64{box.Lx, box.Ly, box.Lz}
	for k, e := range l.Edges {
		src, dst := e[0], e[1]
		var mag float64
		row := out.Row(k)
		for d := 0; d < 3; d++ {
			delta := l.Coords.At(dst, d) - l.Coords.At(src, d)
			if box.Periodic[d] {
				if delta > ext[d]/2 {
					delta -= ext[d]
				} else if delta < -ext[d]/2 {
					delta += ext[d]
				}
			}
			row[d] = delta
			mag += float64(delta * delta)
		}
		row[3] = math.Sqrt(mag)
	}
	return out
}
