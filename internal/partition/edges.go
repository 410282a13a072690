package partition

// CartesianEdgeCounts returns each rank's directed local edge count,
// computed analytically from the block lattice: every pair of consecutive
// lattice points along an axis inside a contiguous block is connected
// (intra-element GLL edges), and a block spanning a full periodic axis
// additionally wraps. Uncollapsed uses it to count edges at the paper's
// scale without building graphs.
func (c *Cartesian) CartesianEdgeCounts() []int64 {
	box := c.Box
	p := box.P
	edims := [3]int{box.Ex, box.Ey, box.Ez}
	out := make([]int64, c.NumRanks())
	for rank := range out {
		_, _, _, nx, ny, nz := c.Block(rank)
		blk := [3]int{nx, ny, nz}
		var pts, segs [3]int64
		for d := 0; d < 3; d++ {
			n := int64(blk[d]*p) + 1
			s := n - 1
			if box.Periodic[d] && blk[d] == edims[d] {
				n--   // lattice wraps onto itself
				s = n // closing segment included
			}
			pts[d], segs[d] = n, s
		}
		undirected := segs[0]*pts[1]*pts[2] + pts[0]*segs[1]*pts[2] + pts[0]*pts[1]*segs[2]
		out[rank] = 2 * undirected
	}
	return out
}
