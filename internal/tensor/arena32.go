package tensor

import "fmt"

// Arena32 is the float32 twin of Arena: the same bump-pointer
// record/replay workspace, carving []float32 slabs for the serving
// engine's activations. It is intentionally a parallel implementation
// rather than a generic core — the two arenas hand out different matrix
// header types, and the duplication is ~100 lines of identical shape.
// The contract (Get/GetZeroed/Reset/Clear semantics, nil-receiver
// fallback, single-goroutine use) is Arena's; see arena.go.
type Arena32 struct {
	slabs [][]float32
	slab  int
	off   int
	mats  []*Matrix32
	live  int
	next  int
}

// NewArena32 returns an empty float32 workspace arena.
func NewArena32() *Arena32 { return &Arena32{} }

// Get returns a rows×cols workspace matrix with unspecified contents,
// replaying the recorded sequence after a Reset. A nil receiver falls
// back to a fresh allocation.
func (a *Arena32) Get(rows, cols int) *Matrix32 {
	if a == nil {
		return New32(rows, cols)
	}
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: arena32 negative dimensions %dx%d", rows, cols))
	}
	if a.next < a.live {
		m := a.mats[a.next]
		if m.Rows != rows || m.Cols != cols {
			panic(fmt.Sprintf(
				"tensor: arena32 shape mismatch at slot %d: recorded %dx%d, requested %dx%d",
				a.next, m.Rows, m.Cols, rows, cols))
		}
		a.next++
		return m
	}
	var m *Matrix32
	if a.live < len(a.mats) {
		m = a.mats[a.live]
	} else {
		m = new(Matrix32)
		a.mats = append(a.mats, m)
	}
	m.Rows, m.Cols, m.Data = rows, cols, a.carve(rows*cols)
	a.live++
	a.next = a.live
	return m
}

// GetZeroed is Get with the returned storage cleared.
func (a *Arena32) GetZeroed(rows, cols int) *Matrix32 {
	if a == nil {
		return New32(rows, cols)
	}
	m := a.Get(rows, cols)
	clear(m.Data)
	return m
}

func (a *Arena32) carve(need int) []float32 {
	for a.slab < len(a.slabs) {
		s := a.slabs[a.slab]
		if len(s)-a.off >= need {
			d := s[a.off : a.off+need : a.off+need]
			a.off += need
			return d
		}
		a.slab++
		a.off = 0
	}
	size := minSlabFloats
	if len(a.slabs) > 0 {
		if last := 2 * len(a.slabs[len(a.slabs)-1]); last > size {
			size = last
		}
	}
	if size < need {
		size = need
	}
	a.slabs = append(a.slabs, make([]float32, size))
	a.slab = len(a.slabs) - 1
	a.off = need
	return a.slabs[a.slab][:need:need]
}

// Reset rewinds the arena for the next pass.
func (a *Arena32) Reset() { a.next = 0 }

// Clear drops the recorded request sequence, keeping slabs and headers.
func (a *Arena32) Clear() {
	a.live = 0
	a.next = 0
	a.slab = 0
	a.off = 0
}

// Slots returns the number of recorded workspace matrices.
func (a *Arena32) Slots() int { return a.live }

// Footprint returns the total slab storage in float32s.
func (a *Arena32) Footprint() int {
	n := 0
	for _, s := range a.slabs {
		n += len(s)
	}
	return n
}
