package tensor

import "testing"

func TestSliceRowsAliases(t *testing.T) {
	m := New(6, 3)
	for i := range m.Data {
		m.Data[i] = float64(i)
	}
	var blk Matrix
	m.SliceRows(&blk, 2, 5)
	if blk.Rows != 3 || blk.Cols != 3 {
		t.Fatalf("block is %dx%d, want 3x3", blk.Rows, blk.Cols)
	}
	if blk.At(0, 0) != m.At(2, 0) || blk.At(2, 2) != m.At(4, 2) {
		t.Fatalf("block does not window rows [2,5)")
	}
	blk.Set(1, 1, -7)
	if m.At(3, 1) != -7 {
		t.Fatal("write through the block did not reach the parent")
	}
	if got := m.RowBlock(0, 2); got.Rows != 2 || &got.Data[0] != &m.Data[0] {
		t.Fatal("RowBlock does not alias the parent storage")
	}
	// The capped sub-slice must not allow appends to scribble past r1.
	if cap(blk.Data) != len(blk.Data) {
		t.Fatalf("block capacity %d exceeds its length %d", cap(blk.Data), len(blk.Data))
	}
}

func TestSliceRowsZeroAlloc(t *testing.T) {
	m := New(8, 4)
	var blk Matrix
	allocs := testing.AllocsPerRun(100, func() {
		m.SliceRows(&blk, 2, 6)
		blk.Data[0] = 1
	})
	if allocs != 0 {
		t.Fatalf("SliceRows into a reused header allocates %v times", allocs)
	}
}

func TestSliceRowsBounds(t *testing.T) {
	m := New(4, 2)
	for _, bad := range [][2]int{{-1, 2}, {3, 2}, {0, 5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SliceRows(%d,%d) did not panic", bad[0], bad[1])
				}
			}()
			var blk Matrix
			m.SliceRows(&blk, bad[0], bad[1])
		}()
	}
}

// TestResizeGrowOnly pins the grow-only contract of Resize: a shape within the capacity views the prefix of the same storage
// with its contents intact, a larger one reallocates zeroed, and once the
// largest shape has been seen no change of shape allocates.
func TestResizeGrowOnly(t *testing.T) {
	var m Matrix
	m.Resize(4, 3)
	for i := range m.Data {
		m.Data[i] = float64(i + 1)
	}
	base := &m.Data[0]
	m.Resize(2, 3)
	if m.Rows != 2 || m.Cols != 3 || len(m.Data) != 6 || &m.Data[0] != base || m.Data[5] != 6 {
		t.Fatalf("shrink did not view the prefix: %v len %d", &m, len(m.Data))
	}
	m.Resize(4, 3)
	if &m.Data[0] != base || m.Data[11] != 12 {
		t.Fatal("regrowing within the capacity lost the storage or its contents")
	}
	m.Resize(5, 3)
	if &m.Data[0] == base || m.Data[0] != 0 {
		t.Fatal("growing past the capacity must reallocate zeroed")
	}
	if raceEnabled {
		return
	}
	if n := testing.AllocsPerRun(5, func() {
		m.Resize(1, 3)
		m.Resize(5, 3)
	}); n != 0 {
		t.Errorf("Resize within the capacity allocates %v times", n)
	}
}
