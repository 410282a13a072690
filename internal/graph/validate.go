package graph

import (
	"fmt"
	"math"
	"sort"
)

// Validate checks the structural invariants of one rank's sub-graph:
// sorted unique global IDs, deduplicated bidirectional edges with valid
// endpoints and positive degrees, coherent halo plans, and degree bounds.
// It returns the first violation found, or nil. Downstream users plugging
// in custom partitioners should validate every rank before training.
func (l *Local) Validate() error {
	n := l.NumLocal()
	if l.Coords == nil || l.Coords.Rows != n || l.Coords.Cols != 3 {
		return fmt.Errorf("graph: coords shape mismatch")
	}
	if len(l.NodeDegree) != n {
		return fmt.Errorf("graph: %d node degrees for %d nodes", len(l.NodeDegree), n)
	}
	for i := 1; i < n; i++ {
		if l.GlobalIDs[i] <= l.GlobalIDs[i-1] {
			return fmt.Errorf("graph: global IDs not strictly increasing at %d", i)
		}
	}
	for i, d := range l.NodeDegree {
		if d < 1 {
			return fmt.Errorf("graph: node %d degree %v < 1", i, d)
		}
	}

	if len(l.EdgeDegree) != len(l.Edges) {
		return fmt.Errorf("graph: %d edge degrees for %d edges", len(l.EdgeDegree), len(l.Edges))
	}
	if len(l.InvEdgeDegree) != len(l.Edges) {
		return fmt.Errorf("graph: %d inverse edge degrees for %d edges", len(l.InvEdgeDegree), len(l.Edges))
	}
	seen := make(map[[2]int]bool, len(l.Edges))
	for k, e := range l.Edges {
		if e[0] < 0 || e[0] >= n || e[1] < 0 || e[1] >= n {
			return fmt.Errorf("graph: edge %d endpoints %v out of range", k, e)
		}
		if e[0] == e[1] {
			return fmt.Errorf("graph: self-loop at edge %d", k)
		}
		if seen[e] {
			return fmt.Errorf("graph: duplicate edge %v", e)
		}
		seen[e] = true
		if l.EdgeDegree[k] < 1 {
			return fmt.Errorf("graph: edge %d degree %v < 1", k, l.EdgeDegree[k])
		}
		if math.Float64bits(l.InvEdgeDegree[k]) != math.Float64bits(1/l.EdgeDegree[k]) {
			return fmt.Errorf("graph: edge %d inverse degree %v is not 1/%v", k, l.InvEdgeDegree[k], l.EdgeDegree[k])
		}
	}
	for e := range seen {
		if !seen[[2]int{e[1], e[0]}] {
			return fmt.Errorf("graph: missing reverse of edge %v", e)
		}
	}

	// Halo plan coherence.
	p := l.Plan
	if len(p.SendIdx) != len(p.Neighbors) || len(p.RecvIdx) != len(p.Neighbors) {
		return fmt.Errorf("graph: plan lists %d neighbors, %d send, %d recv",
			len(p.Neighbors), len(p.SendIdx), len(p.RecvIdx))
	}
	if !sort.IntsAreSorted(p.Neighbors) {
		return fmt.Errorf("graph: neighbors not sorted")
	}
	haloRows := 0
	for k, nb := range p.Neighbors {
		if nb == l.Rank {
			return fmt.Errorf("graph: rank %d lists itself as neighbor", l.Rank)
		}
		if len(p.SendIdx[k]) != len(p.RecvIdx[k]) {
			return fmt.Errorf("graph: neighbor %d send/recv length mismatch", nb)
		}
		for _, i := range p.SendIdx[k] {
			if i < 0 || i >= n {
				return fmt.Errorf("graph: send index %d out of range", i)
			}
			if l.NodeDegree[i] < 2 {
				return fmt.Errorf("graph: sending non-shared node %d (degree %v)", i, l.NodeDegree[i])
			}
		}
		for _, h := range p.RecvIdx[k] {
			if h != haloRows {
				return fmt.Errorf("graph: halo rows not consecutive at neighbor %d", nb)
			}
			haloRows++
		}
	}
	if haloRows != l.NumHalo() || len(l.HaloOwner) != haloRows {
		return fmt.Errorf("graph: %d halo rows, %d owners", haloRows, len(l.HaloOwner))
	}
	for h, owner := range l.HaloOwner {
		if owner < 0 || owner >= n {
			return fmt.Errorf("graph: halo %d owner %d out of range", h, owner)
		}
	}
	// Owner-grouped halo index coherence: every halo row listed once,
	// under its owner, ascending within each owner group.
	if len(l.HaloStart) != n+1 || len(l.HaloPerm) != len(l.HaloOwner) {
		return fmt.Errorf("graph: halo CSR sizes %d/%d, want %d/%d",
			len(l.HaloStart), len(l.HaloPerm), n+1, len(l.HaloOwner))
	}
	if l.HaloStart[0] != 0 || l.HaloStart[n] != len(l.HaloPerm) {
		return fmt.Errorf("graph: halo CSR bounds [%d,%d]", l.HaloStart[0], l.HaloStart[n])
	}
	for i := 0; i < n; i++ {
		if l.HaloStart[i] > l.HaloStart[i+1] {
			return fmt.Errorf("graph: halo CSR not monotonic at node %d", i)
		}
		for p := l.HaloStart[i]; p < l.HaloStart[i+1]; p++ {
			hr := l.HaloPerm[p]
			if hr < 0 || hr >= len(l.HaloOwner) || l.HaloOwner[hr] != i {
				return fmt.Errorf("graph: halo CSR entry %d misgrouped under node %d", hr, i)
			}
			if p > l.HaloStart[i] && l.HaloPerm[p-1] >= hr {
				return fmt.Errorf("graph: halo CSR not ascending under node %d", i)
			}
		}
	}

	// Interior/boundary decomposition: NodeOrder must list exactly the
	// shared rows (degree > 1) ascending, then the interior rows
	// ascending. The overlapped NMP pipeline relies on the prefix covering
	// every row the halo plan touches, which this block enforces
	// transitively: every SendIdx row has degree >= 2 (checked above) and
	// every degree>1 row must sit in the boundary prefix (checked here),
	// so sends ⊆ prefix; halo owners ⊆ prefix because interior rows are
	// required to own no halo copies (below) and the halo CSR covers
	// every owner (checked above).
	if len(l.NodeOrder) != n {
		return fmt.Errorf("graph: NodeOrder has %d entries for %d nodes", len(l.NodeOrder), n)
	}
	if l.NumBoundary < 0 || l.NumBoundary > n {
		return fmt.Errorf("graph: NumBoundary %d out of range [0,%d]", l.NumBoundary, n)
	}
	for pos, i := range l.NodeOrder {
		if i < 0 || i >= n {
			return fmt.Errorf("graph: NodeOrder[%d] = %d out of range", pos, i)
		}
		boundary := pos < l.NumBoundary
		if (l.NodeDegree[i] > 1) != boundary {
			return fmt.Errorf("graph: NodeOrder[%d] = %d (degree %v) on the wrong side of the boundary split",
				pos, i, l.NodeDegree[i])
		}
		ascendingFrom := 0
		if !boundary {
			ascendingFrom = l.NumBoundary
		}
		if pos > ascendingFrom && l.NodeOrder[pos-1] >= i {
			return fmt.Errorf("graph: NodeOrder not ascending within its partition at %d", pos)
		}
		if boundary && l.HaloStart[i+1] == l.HaloStart[i] {
			return fmt.Errorf("graph: boundary node %d owns no halo copies", i)
		}
		if !boundary && l.HaloStart[i+1] != l.HaloStart[i] {
			return fmt.Errorf("graph: interior node %d owns halo copies", i)
		}
	}
	// EdgeOrder must be the receiver-grouped permutation NodeOrder induces
	// through RecvStart (each receiver's run in canonical edge order), with
	// NumBoundaryEdges the total in-degree of the boundary prefix.
	if len(l.EdgeOrder) != len(l.Edges) {
		return fmt.Errorf("graph: EdgeOrder has %d entries for %d edges", len(l.EdgeOrder), len(l.Edges))
	}
	pos := 0
	for ord, i := range l.NodeOrder {
		for k := l.RecvStart[i]; k < l.RecvStart[i+1]; k++ {
			if l.EdgeOrder[pos] != k {
				return fmt.Errorf("graph: EdgeOrder[%d] = %d, want %d (receiver %d)", pos, l.EdgeOrder[pos], k, i)
			}
			pos++
		}
		if ord == l.NumBoundary-1 && l.NumBoundaryEdges != pos {
			return fmt.Errorf("graph: NumBoundaryEdges %d, boundary prefix in-degree %d", l.NumBoundaryEdges, pos)
		}
	}
	if l.NumBoundary == 0 && l.NumBoundaryEdges != 0 {
		return fmt.Errorf("graph: NumBoundaryEdges %d with no boundary nodes", l.NumBoundaryEdges)
	}
	return nil
}

// ValidateAll validates every rank and then the cross-rank invariants:
// symmetric halo plans (matching global IDs in matching order), globally
// consistent node degrees (d_i equals the number of owning ranks), and
// edge degrees that sum to exactly one full-weight copy per global edge.
func ValidateAll(locals []*Local) error {
	byRank := make(map[int]*Local, len(locals))
	for _, l := range locals {
		if err := l.Validate(); err != nil {
			return fmt.Errorf("rank %d: %w", l.Rank, err)
		}
		byRank[l.Rank] = l
	}
	// Plan symmetry.
	for _, l := range locals {
		for k, nb := range l.Plan.Neighbors {
			other, ok := byRank[nb]
			if !ok {
				return fmt.Errorf("rank %d references missing rank %d", l.Rank, nb)
			}
			ko := -1
			for i, onb := range other.Plan.Neighbors {
				if onb == l.Rank {
					ko = i
				}
			}
			if ko < 0 {
				return fmt.Errorf("rank %d -> %d not reciprocated", l.Rank, nb)
			}
			send := l.Plan.SendIdx[k]
			recv := other.Plan.RecvIdx[ko]
			if len(send) != len(recv) {
				return fmt.Errorf("pair (%d,%d): asymmetric sizes", l.Rank, nb)
			}
			for i := range send {
				gidS := l.GlobalIDs[send[i]]
				gidR := other.GlobalIDs[other.HaloOwner[recv[i]]]
				if gidS != gidR {
					return fmt.Errorf("pair (%d,%d) slot %d: gid %d vs %d",
						l.Rank, nb, i, gidS, gidR)
				}
			}
		}
	}
	// Node-degree correctness.
	owners := make(map[int64]int)
	for _, l := range locals {
		for _, gid := range l.GlobalIDs {
			owners[gid]++
		}
	}
	for _, l := range locals {
		for i, gid := range l.GlobalIDs {
			if int(l.NodeDegree[i]) != owners[gid] {
				return fmt.Errorf("rank %d node %d: degree %v, owned by %d ranks",
					l.Rank, gid, l.NodeDegree[i], owners[gid])
			}
		}
	}
	// Edge-weight completeness.
	weights := make(map[[2]int64]float64)
	for _, l := range locals {
		for k, e := range l.Edges {
			key := [2]int64{l.GlobalIDs[e[0]], l.GlobalIDs[e[1]]}
			weights[key] += 1 / l.EdgeDegree[k]
		}
	}
	for key, w := range weights {
		if w < 1-1e-9 || w > 1+1e-9 {
			return fmt.Errorf("edge %v total weight %v, want 1", key, w)
		}
	}
	return nil
}
