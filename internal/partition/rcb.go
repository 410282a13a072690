package partition

import (
	"fmt"
	"sort"

	"meshgnn/internal/mesh"
)

// RCB partitions a mesh by recursive coordinate bisection over element
// centroids: at each level the current element set is split at the median
// of its longest extent. It produces balanced (±1 element) but ragged
// partitions for any rank count, serving as the stand-in for graph-based
// partitioners such as the parRSB library NekRS uses.
type RCB struct {
	box   *mesh.Box
	elems [][]int
}

// NewRCB builds an RCB partition of box over r ranks.
func NewRCB(box *mesh.Box, r int) (*RCB, error) {
	if r < 1 {
		return nil, fmt.Errorf("partition: need >= 1 ranks, got %d", r)
	}
	n := box.NumElements()
	if r > n {
		return nil, fmt.Errorf("partition: %d ranks exceed %d elements", r, n)
	}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	p := &RCB{box: box, elems: make([][]int, 0, r)}
	p.bisect(all, r)
	if len(p.elems) != r {
		return nil, fmt.Errorf("partition: RCB produced %d parts, want %d", len(p.elems), r)
	}
	return p, nil
}

// bisect splits elems into r parts, appending leaf parts to p.elems in
// deterministic order.
func (p *RCB) bisect(elems []int, r int) {
	if r == 1 {
		p.elems = append(p.elems, elems)
		return
	}
	// Split rank count as evenly as possible; element counts follow
	// proportionally so leaves stay balanced for non-power-of-two r.
	rLeft := r / 2
	rRight := r - rLeft
	nLeft := len(elems) * rLeft / r

	axis := p.longestExtent(elems)
	sorted := make([]int, len(elems))
	copy(sorted, elems)
	sort.Slice(sorted, func(i, j int) bool {
		ci := p.centroid(sorted[i], axis)
		cj := p.centroid(sorted[j], axis)
		if ci != cj {
			return ci < cj
		}
		return sorted[i] < sorted[j] // deterministic tie-break
	})
	p.bisect(sorted[:nLeft], rLeft)
	p.bisect(sorted[nLeft:], rRight)
}

// centroid returns the element-grid coordinate of element e along axis.
func (p *RCB) centroid(e, axis int) int {
	x, y, z := p.box.ElementCoords(e)
	switch axis {
	case 0:
		return x
	case 1:
		return y
	default:
		return z
	}
}

// longestExtent returns the axis along which the element set spans the
// most element-grid cells.
func (p *RCB) longestExtent(elems []int) int {
	var lo, hi [3]int
	for d := 0; d < 3; d++ {
		lo[d] = 1 << 30
		hi[d] = -1
	}
	for _, e := range elems {
		x, y, z := p.box.ElementCoords(e)
		for d, v := range [3]int{x, y, z} {
			if v < lo[d] {
				lo[d] = v
			}
			if v > hi[d] {
				hi[d] = v
			}
		}
	}
	best, bestSpan := 0, -1
	for d := 0; d < 3; d++ {
		if span := hi[d] - lo[d]; span > bestSpan {
			best, bestSpan = d, span
		}
	}
	return best
}

// NumRanks implements Partition.
func (p *RCB) NumRanks() int { return len(p.elems) }

// Elements implements Partition.
func (p *RCB) Elements(r int) []int { return p.elems[r] }
