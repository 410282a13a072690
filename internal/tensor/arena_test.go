package tensor

import "testing"

// TestArenaReplayReturnsSameStorage asserts the steady-state contract:
// after a Reset, the recorded sequence replays the identical matrix
// headers and slab storage.
func TestArenaReplayReturnsSameStorage(t *testing.T) {
	a := NewArena()
	m1 := a.Get(7, 3)
	m2 := a.GetZeroed(4, 5)
	m1.Data[0] = 42
	a.Reset()
	r1 := a.Get(7, 3)
	r2 := a.GetZeroed(4, 5)
	if r1 != m1 || r2 != m2 {
		t.Fatal("replay returned different headers")
	}
	if r1.Data[0] != 42 {
		t.Fatal("Get must not clear recycled storage")
	}
	for _, v := range r2.Data {
		if v != 0 {
			t.Fatal("GetZeroed returned dirty storage")
		}
	}
}

// TestArenaShapeMismatchPanics asserts that diverging from the recorded
// request sequence fails loudly instead of silently aliasing buffers.
func TestArenaShapeMismatchPanics(t *testing.T) {
	a := NewArena()
	a.Get(3, 3)
	a.Reset()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on shape mismatch during replay")
		}
	}()
	a.Get(3, 4)
}

// TestArenaGrowthAfterReplay allows the sequence to extend past the
// record (a forward-only pass followed by forward+backward).
func TestArenaGrowthAfterReplay(t *testing.T) {
	a := NewArena()
	a.Get(2, 2)
	a.Reset()
	a.Get(2, 2)
	m := a.Get(5, 5) // extends the record
	if m.Rows != 5 || m.Cols != 5 {
		t.Fatalf("growth returned %dx%d", m.Rows, m.Cols)
	}
	a.Reset()
	a.Get(2, 2)
	if got := a.Get(5, 5); got != m {
		t.Fatal("extended record did not replay")
	}
	if a.Slots() != 2 {
		t.Fatalf("Slots() = %d, want 2", a.Slots())
	}
}

// TestArenaSlabGrowth drives requests past one slab and checks carved
// regions never overlap.
func TestArenaSlabGrowth(t *testing.T) {
	a := NewArena()
	mats := make([]*Matrix, 0, 8)
	for i := 0; i < 8; i++ {
		// Each request is a quarter slab, forcing several slabs.
		m := a.Get(minSlabFloats/4, 1)
		for j := range m.Data {
			m.Data[j] = float64(i)
		}
		mats = append(mats, m)
	}
	for i, m := range mats {
		for _, v := range m.Data {
			if v != float64(i) {
				t.Fatalf("slab regions overlap: matrix %d holds %v", i, v)
			}
		}
	}
	if a.Footprint() < 8*minSlabFloats/4 {
		t.Fatalf("footprint %d too small", a.Footprint())
	}
}

// TestArenaOversizedRequest covers single requests larger than the
// default slab.
func TestArenaOversizedRequest(t *testing.T) {
	a := NewArena()
	m := a.Get(2*minSlabFloats, 1)
	if len(m.Data) != 2*minSlabFloats {
		t.Fatalf("oversized carve length %d", len(m.Data))
	}
}

// TestArenaClearRerecords asserts Clear drops the record but keeps slab
// capacity for the next recording.
func TestArenaClearRerecords(t *testing.T) {
	a := NewArena()
	a.Get(10, 10)
	foot := a.Footprint()
	a.Clear()
	if a.Slots() != 0 {
		t.Fatalf("Slots() = %d after Clear", a.Slots())
	}
	m := a.Get(4, 4) // different shape: legal after Clear
	if m.Rows != 4 || m.Cols != 4 {
		t.Fatalf("got %dx%d", m.Rows, m.Cols)
	}
	if a.Footprint() != foot {
		t.Fatalf("Clear dropped slabs: %d -> %d", foot, a.Footprint())
	}
}

// TestArenaZeroAllocReplay is the point of the type: a replayed epoch
// performs no heap allocation.
func TestArenaZeroAllocReplay(t *testing.T) {
	a := NewArena()
	epoch := func() {
		a.Reset()
		a.Get(16, 16)
		a.GetZeroed(8, 4)
		a.Get(3, 9)
	}
	epoch() // record
	if n := testing.AllocsPerRun(20, epoch); n != 0 {
		t.Fatalf("replayed epoch allocates %v times", n)
	}
}

// TestArenaZeroAllocRerecord: Clear keeps the headers as well as the
// slabs, so alternating between two recorded shapes — a serving engine
// whose batch size changes on every call — allocates nothing once the
// larger one has been seen, on either element type. The shape check
// between Resets is untouched by it.
func TestArenaZeroAllocRerecord(t *testing.T) {
	a, a32 := NewArena(), NewArena32()
	record := func(rows int) {
		a.Clear()
		a.Get(rows, 16)
		a.GetZeroed(rows, 4)
		a32.Clear()
		a32.Get(rows, 16)
		a32.GetZeroed(rows, 4)
	}
	record(64)
	foot, foot32 := a.Footprint(), a32.Footprint()
	if n := testing.AllocsPerRun(20, func() { record(8); record(64) }); n != 0 {
		t.Fatalf("re-recording over kept slabs and headers allocates %v times", n)
	}
	if a.Footprint() != foot || a32.Footprint() != foot32 {
		t.Fatalf("footprint moved %d/%d -> %d/%d re-recording shapes no larger than the first",
			foot, foot32, a.Footprint(), a32.Footprint())
	}
	if a.Slots() != 2 || a32.Slots() != 2 {
		t.Fatalf("Slots() = %d/%d after a two-request record, want 2", a.Slots(), a32.Slots())
	}
	a.Reset()
	defer func() {
		if recover() == nil {
			t.Fatal("expected the shape-mismatch panic on a replay after a re-record")
		}
	}()
	a.Get(8, 16)
}
