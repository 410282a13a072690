// Package partition implements domain decomposition of spectral-element
// box meshes, standing in for the NekRS mesh partitioner the paper links
// into its GNN workflow.
//
// Two partitioners are provided:
//
//   - Cartesian: ranks form an Rx×Ry×Rz process grid and each rank owns an
//     axis-aligned block of elements. The paper notes its decomposition
//     switches "from vertical rectangular chunks of the domain to
//     sub-cubes" as R grows; the Slabs/Pencils/Blocks strategies reproduce
//     exactly those regimes.
//   - RCB: recursive coordinate bisection over element centroids, a
//     geometric stand-in for graph/spectral partitioners (parRSB) that
//     produces balanced but ragged element sets.
//
// Both yield the same interface: the set of element IDs owned by each
// rank. Everything downstream (graph construction, halo plans) is
// partitioner-agnostic.
package partition

import (
	"fmt"
	"sort"

	"meshgnn/internal/mesh"
)

// Partition assigns every mesh element to exactly one rank.
type Partition interface {
	// NumRanks returns the number of ranks R.
	NumRanks() int
	// Elements returns the element IDs owned by rank r. The returned
	// slice must not be modified.
	Elements(r int) []int
}

// Strategy selects the Cartesian process-grid shape.
type Strategy int

const (
	// Slabs splits only the longest element axis: R×1×1 chunks
	// ("vertical rectangular chunks" in the paper).
	Slabs Strategy = iota
	// Pencils splits the two longest axes.
	Pencils
	// Blocks splits all three axes with a surface-minimizing
	// factorization ("sub-cubes").
	Blocks
	// Auto uses Slabs for R <= 8 and Blocks beyond, following the
	// paper's Table II footnote.
	Auto
)

func (s Strategy) String() string {
	switch s {
	case Slabs:
		return "slabs"
	case Pencils:
		return "pencils"
	case Blocks:
		return "blocks"
	case Auto:
		return "auto"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// Cartesian partitions a Box into an Rx×Ry×Rz grid of element blocks.
type Cartesian struct {
	Box        *mesh.Box
	Rx, Ry, Rz int

	elems [][]int // lazily built per-rank element lists
}

// NewCartesian builds a Cartesian partition of box over r ranks using the
// given strategy. It fails if r cannot be factorized onto the element grid
// (every grid dimension must be at least 1 element per rank).
func NewCartesian(box *mesh.Box, r int, strat Strategy) (*Cartesian, error) {
	if r < 1 {
		return nil, fmt.Errorf("partition: need >= 1 ranks, got %d", r)
	}
	if strat == Auto {
		if r <= 8 {
			strat = Slabs
		} else {
			strat = Blocks
		}
	}
	rx, ry, rz, err := factorize(box, r, strat)
	if err != nil {
		return nil, err
	}
	if rx > box.Ex || ry > box.Ey || rz > box.Ez {
		return nil, fmt.Errorf("partition: grid %dx%dx%d exceeds element grid %dx%dx%d",
			rx, ry, rz, box.Ex, box.Ey, box.Ez)
	}
	return &Cartesian{Box: box, Rx: rx, Ry: ry, Rz: rz}, nil
}

// factorize chooses the process-grid dimensions.
func factorize(box *mesh.Box, r int, strat Strategy) (rx, ry, rz int, err error) {
	switch strat {
	case Slabs:
		// Split the longest element axis.
		switch longestAxis(box) {
		case 0:
			return r, 1, 1, nil
		case 1:
			return 1, r, 1, nil
		default:
			return 1, 1, r, nil
		}
	case Pencils:
		a, b := twoFactor(r)
		// Assign the larger factor to the longer of the two longest axes.
		ax1, ax2 := twoLongestAxes(box)
		dims := [3]int{1, 1, 1}
		dims[ax1], dims[ax2] = a, b
		return dims[0], dims[1], dims[2], nil
	case Blocks:
		return threeFactor(box, r)
	}
	return 0, 0, 0, fmt.Errorf("partition: unknown strategy %v", strat)
}

func longestAxis(box *mesh.Box) int {
	if box.Ex >= box.Ey && box.Ex >= box.Ez {
		return 0
	}
	if box.Ey >= box.Ez {
		return 1
	}
	return 2
}

// twoLongestAxes returns the two longest element axes, longest first.
func twoLongestAxes(box *mesh.Box) (int, int) {
	type ax struct{ n, d int }
	axes := []ax{{box.Ex, 0}, {box.Ey, 1}, {box.Ez, 2}}
	sort.Slice(axes, func(i, j int) bool {
		if axes[i].n != axes[j].n {
			return axes[i].n > axes[j].n
		}
		return axes[i].d < axes[j].d
	})
	return axes[0].d, axes[1].d
}

// twoFactor returns the factorization r = a*b with a >= b and a/b minimal.
func twoFactor(r int) (a, b int) {
	best := 1
	for d := 1; d*d <= r; d++ {
		if r%d == 0 {
			best = d
		}
	}
	return r / best, best
}

// threeFactor finds rx*ry*rz = r minimizing the total shared surface of
// the resulting blocks (a standard heuristic for near-cubic partitions).
func threeFactor(box *mesh.Box, r int) (rx, ry, rz int, err error) {
	bestCost := -1.0
	for a := 1; a <= r; a++ {
		if r%a != 0 {
			continue
		}
		ra := r / a
		for b := 1; b <= ra; b++ {
			if ra%b != 0 {
				continue
			}
			c := ra / b
			if a > box.Ex || b > box.Ey || c > box.Ez {
				continue
			}
			// Per-block dimensions (in elements).
			bx := float64(box.Ex) / float64(a)
			by := float64(box.Ey) / float64(b)
			bz := float64(box.Ez) / float64(c)
			cost := float64(bx*by) + float64(by*bz) + float64(bx*bz) // half-surface per block
			if bestCost < 0 || cost < bestCost {
				bestCost, rx, ry, rz = cost, a, b, c
			}
		}
	}
	if bestCost < 0 {
		return 0, 0, 0, fmt.Errorf("partition: cannot factorize %d ranks onto %dx%dx%d elements",
			r, box.Ex, box.Ey, box.Ez)
	}
	return rx, ry, rz, nil
}

// NumRanks implements Partition.
func (c *Cartesian) NumRanks() int { return c.Rx * c.Ry * c.Rz }

// RankCoords maps a rank to its process-grid coordinates.
func (c *Cartesian) RankCoords(r int) (i, j, k int) {
	i = r % c.Rx
	r /= c.Rx
	return i, r % c.Ry, r / c.Ry
}

// RankID inverts RankCoords.
func (c *Cartesian) RankID(i, j, k int) int { return i + c.Rx*(j+c.Ry*k) }

// chunk returns the half-open element range [lo,hi) of the i-th of n
// even chunks over e elements. Remainder elements go to the leading
// chunks, so chunk sizes differ by at most one.
func chunk(e, n, i int) (lo, hi int) {
	q, rem := e/n, e%n
	lo = i*q + min(i, rem)
	hi = lo + q
	if i < rem {
		hi++
	}
	return lo, hi
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Block returns rank r's element block as origin and size along each axis.
func (c *Cartesian) Block(r int) (x0, y0, z0, nx, ny, nz int) {
	i, j, k := c.RankCoords(r)
	var x1, y1, z1 int
	x0, x1 = chunk(c.Box.Ex, c.Rx, i)
	y0, y1 = chunk(c.Box.Ey, c.Ry, j)
	z0, z1 = chunk(c.Box.Ez, c.Rz, k)
	return x0, y0, z0, x1 - x0, y1 - y0, z1 - z0
}

// Elements implements Partition.
func (c *Cartesian) Elements(r int) []int {
	if c.elems == nil {
		c.elems = make([][]int, c.NumRanks())
	}
	if c.elems[r] != nil {
		return c.elems[r]
	}
	x0, y0, z0, nx, ny, nz := c.Block(r)
	out := make([]int, 0, nx*ny*nz)
	for g := z0; g < z0+nz; g++ {
		for f := y0; f < y0+ny; f++ {
			for e := x0; e < x0+nx; e++ {
				out = append(out, c.Box.ElementID(e, f, g))
			}
		}
	}
	c.elems[r] = out
	return out
}
