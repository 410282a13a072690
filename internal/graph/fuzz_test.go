package graph

import (
	"math"
	"testing"

	"meshgnn/internal/mesh"
	"meshgnn/internal/partition"
)

// fuzzMesh clamps raw fuzz bytes into a valid small mesh/partition
// configuration: meshes up to 4³ elements at p ≤ 3, up to 6 ranks, any
// periodicity, both partitioner families. Invalid combinations (periodic
// axis with one element, more ranks than elements, non-factorizable
// Cartesian grids) are skipped, not failed — the fuzz targets assert
// properties of configurations the library accepts.
func fuzzMesh(t *testing.T, ex, ey, ez, p, ranks, flags uint8) (*mesh.Box, partition.Partition, int) {
	t.Helper()
	nx := 1 + int(ex)%4
	ny := 1 + int(ey)%4
	nz := 1 + int(ez)%4
	order := 1 + int(p)%3
	r := 1 + int(ranks)%6
	periodic := [3]bool{flags&1 != 0, flags&2 != 0, flags&4 != 0}
	box, err := mesh.NewBox(nx, ny, nz, order, periodic)
	if err != nil {
		t.Skip()
	}
	var part partition.Partition
	if flags&8 != 0 {
		part, err = partition.NewRCB(box, r)
	} else {
		part, err = partition.NewCartesian(box, r, partition.Auto)
	}
	if err != nil {
		t.Skip()
	}
	return box, part, r
}

// FuzzGraphValidate builds the distributed graph for random mesh sizes,
// orders, periodicities, rank counts, and partitioner families, and
// asserts every rank's sub-graph passes the structural validator (halo
// plan symmetry, degree factors, CSR indexes, consistency invariants).
func FuzzGraphValidate(f *testing.F) {
	f.Add(uint8(2), uint8(2), uint8(2), uint8(0), uint8(1), uint8(7))
	f.Add(uint8(3), uint8(1), uint8(2), uint8(1), uint8(3), uint8(8))
	f.Add(uint8(2), uint8(3), uint8(3), uint8(2), uint8(5), uint8(15))
	f.Add(uint8(1), uint8(1), uint8(1), uint8(0), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, ex, ey, ez, p, ranks, flags uint8) {
		box, part, _ := fuzzMesh(t, ex, ey, ez, p, ranks, flags)
		locals, err := BuildAll(box, part)
		if err != nil {
			t.Fatalf("BuildAll rejected a partition the partitioner produced: %v", err)
		}
		if err := ValidateAll(locals); err != nil {
			t.Fatalf("invalid distributed graph: %v", err)
		}
	})
}

// FuzzPartitionRoundTrip asserts the global assembly round-trip for
// random configurations: the per-rank sub-graphs cover every global node
// of the single-rank graph, coincident copies agree, and reassembling
// node coordinates by global ID reproduces the unpartitioned graph
// bitwise — the structural half of the paper's Eq. 2.
func FuzzPartitionRoundTrip(f *testing.F) {
	f.Add(uint8(2), uint8(2), uint8(2), uint8(0), uint8(1), uint8(7))
	f.Add(uint8(3), uint8(2), uint8(1), uint8(1), uint8(4), uint8(9))
	f.Add(uint8(3), uint8(3), uint8(2), uint8(2), uint8(2), uint8(0))
	f.Fuzz(func(t *testing.T, ex, ey, ez, p, ranks, flags uint8) {
		box, part, r := fuzzMesh(t, ex, ey, ez, p, ranks, flags)
		locals, err := BuildAll(box, part)
		if err != nil {
			t.Fatalf("BuildAll: %v", err)
		}
		single, err := BuildSingle(box)
		if err != nil {
			t.Fatalf("BuildSingle: %v", err)
		}

		// Every element must be owned by exactly one rank.
		owned := make(map[int]int)
		for rr := 0; rr < r; rr++ {
			for _, e := range part.Elements(rr) {
				owned[e]++
			}
		}
		for e := 0; e < box.NumElements(); e++ {
			if owned[e] != 1 {
				t.Fatalf("element %d owned by %d ranks", e, owned[e])
			}
		}

		// Reassemble coordinates by global ID across ranks; coincident
		// copies must agree bitwise with the single-rank graph.
		type pos struct{ x, y, z float64 }
		seen := make(map[int64]pos)
		for _, l := range locals {
			for i, gid := range l.GlobalIDs {
				row := l.Coords.Row(i)
				p := pos{row[0], row[1], row[2]}
				if prev, ok := seen[gid]; ok && prev != p {
					t.Fatalf("global node %d has diverging coordinates %v vs %v", gid, prev, p)
				}
				seen[gid] = p
			}
		}
		if len(seen) != single.NumLocal() {
			t.Fatalf("assembled %d unique global nodes, single-rank graph has %d",
				len(seen), single.NumLocal())
		}
		for i, gid := range single.GlobalIDs {
			row := single.Coords.Row(i)
			got, ok := seen[gid]
			if !ok {
				t.Fatalf("global node %d missing from the partitioned assembly", gid)
			}
			if math.Float64bits(got.x) != math.Float64bits(row[0]) ||
				math.Float64bits(got.y) != math.Float64bits(row[1]) ||
				math.Float64bits(got.z) != math.Float64bits(row[2]) {
				t.Fatalf("global node %d coordinates %v differ from single-rank %v", gid, got, row)
			}
		}

		// Node degree factors must sum consistently: Σ_ranks 1/d_i over
		// copies of one node is exactly 1 (Eq. 6c), so the total over all
		// ranks equals the unique node count.
		var neff float64
		for _, l := range locals {
			for _, d := range l.NodeDegree {
				neff += 1 / d
			}
		}
		if math.Abs(neff-float64(single.NumLocal())) > 1e-9*float64(single.NumLocal()) {
			t.Fatalf("Σ 1/d_i = %v, want %d", neff, single.NumLocal())
		}
	})
}
