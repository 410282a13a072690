package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestGatherAddEdgeRows holds GatherAddEdgeRows on every rung to its
// definition — the go rung's loop, dst + (p[recv] + q[send]) per element —
// under the package's NaN contract (mismatch), for both element types at
// widths 1, 5, 8, 32 and 33 (a lone masked tail, whole vectors of either
// width, whole vectors and a tail): three sample blocks of a stacked batch,
// one call each into consecutive rows of one panel, as the edge stage's
// head does, with ±0, ±Inf and NaN planted in p, q and dst. A guard band
// of sentinel bits either side of the panel must come through untouched,
// and an edge index outside p or q must panic.
func TestGatherAddEdgeRows(t *testing.T) {
	t.Run("float64", gatherAddEdgeRowsSweep[float64])
	t.Run("float32", gatherAddEdgeRowsSweep[float32])
}

func gatherAddEdgeRowsSweep[T float](t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const nodes, guard = 11, 40
	inf := T(math.Inf(1))
	special := []T{T(math.Copysign(0, -1)), 0, inf, -inf, T(math.NaN())}
	plant := func(v []T) []T {
		for i := range v {
			if rng.Intn(6) == 0 {
				v[i] = special[rng.Intn(len(special))]
			}
		}
		return v
	}
	sentinel := sweepValue[T](rand.New(rand.NewSource(1)), 1)
	for _, h := range []int{1, 5, 8, 32, 33} {
		blocks := []int{rng.Intn(4), 1 + rng.Intn(30), 1 + rng.Intn(30)} // edges per sample block
		total := blocks[0] + blocks[1] + blocks[2]
		p := plant(sweepSlice[T](rng, len(blocks)*nodes*h, 9))
		q := plant(sweepSlice[T](rng, len(blocks)*nodes*h, 9))
		pre := plant(sweepSlice[T](rng, total*h, 9))
		edges := make([][][2]int, len(blocks))
		for b := range edges {
			edges[b] = make([][2]int, blocks[b])
			for k := range edges[b] {
				edges[b][k] = [2]int{rng.Intn(nodes), rng.Intn(nodes)}
			}
		}
		run := func(k kernelTier) []T {
			defer setKernelTier(setKernelTier(k))
			buf := make([]T, guard+h*total+guard)
			for i := range buf {
				buf[i] = sentinel
			}
			panel := buf[guard : guard+h*total]
			copy(panel, pre)
			for r, b := 0, 0; b < len(blocks); b++ {
				blk := nodes * h
				GatherAddEdgeRows(panel[h*r:h*(r+blocks[b])], p[b*blk:(b+1)*blk], q[b*blk:(b+1)*blk], edges[b], h)
				r += blocks[b]
			}
			for _, band := range [][]T{buf[:guard], buf[guard+len(panel):]} {
				for i, v := range band {
					if bitsOf(v) != bitsOf(sentinel) {
						t.Fatalf("h=%d rung %v: wrote guard element %d outside the panel", h, k, i)
					}
				}
			}
			return panel
		}
		def := run(tierGo)
		for r := 0; r < total*h; r++ { // the go rung is the definition: check it is the formula
			b, k := 0, r/h
			for k >= blocks[b] {
				k -= blocks[b]
				b++
			}
			ed, j := edges[b][k], r%h
			want := pre[r] + (p[(b*nodes+ed[1])*h+j] + q[(b*nodes+ed[0])*h+j])
			if i := mismatch(def[r:r+1], []T{want}); i >= 0 {
				t.Fatalf("h=%d: go rung element %d is %#x, want %#x", h, r, bitsOf(def[r]), bitsOf(want))
			}
		}
		for k := tierAVX512; k > tierGo; k-- {
			if k > cpuTier {
				t.Logf("rung %v not run: this CPU's top rung is %v", k, cpuTier)
				continue
			}
			if i := mismatch(run(k), def); i >= 0 {
				t.Fatalf("h=%d blocks=%v rung %v: element %d (edge %d) differs from the definition", h, blocks, k, i, i/h)
			}
		}
		for k := tierAVX512; k >= tierGo; k-- {
			if k > cpuTier {
				continue
			}
			for _, bad := range [][2]int{{0, nodes}, {nodes, 0}, {-1, 0}, {0, -1}} {
				func() {
					defer setKernelTier(setKernelTier(k))
					defer func() {
						if recover() == nil {
							t.Fatalf("h=%d rung %v: edge %v outside %d nodes did not panic", h, k, bad, nodes)
						}
					}()
					GatherAddEdgeRows(make([]T, 2*h), p[:nodes*h], q[:nodes*h], [][2]int{{1, 2}, bad}, h)
				}()
			}
		}
	}
}

// BenchmarkGatherAddEdgeRows times the edge gather-add per rung at
// SmallConfig's width (8) and LargeConfig's (32), both element types: a
// 64-edge panel from a 512-node block.
func BenchmarkGatherAddEdgeRows(b *testing.B) {
	b.Run("float64", benchGatherAddEdgeRows[float64])
	b.Run("float32", benchGatherAddEdgeRows[float32])
}

func benchGatherAddEdgeRows[T float](b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	const nodes, rows = 512, 64
	edges := make([][2]int, rows)
	for k := range edges {
		edges[k] = [2]int{rng.Intn(nodes), rng.Intn(nodes)}
	}
	for _, h := range []int{8, 32} {
		p, q := sweepSlice[T](rng, nodes*h, 0), sweepSlice[T](rng, nodes*h, 0)
		dst := make([]T, h*rows)
		for r := tierAVX512; r >= tierGo; r-- {
			b.Run(fmt.Sprintf("%d/%v", h, r), func(b *testing.B) {
				if r > cpuTier {
					b.Skipf("rung %v not run: this CPU's top rung is %v", r, cpuTier)
				}
				defer setKernelTier(setKernelTier(r))
				for i := 0; i < b.N; i++ {
					GatherAddEdgeRows(dst, p, q, edges, h)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows, "ns/row")
			})
		}
	}
}
