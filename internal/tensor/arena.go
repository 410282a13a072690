package tensor

import "fmt"

// Arena is a bump-pointer workspace allocator for the per-step tensors of
// a training loop: activations, intermediate gradients, staging buffers —
// everything whose lifetime is one forward/backward pass.
//
// The design targets a *steady state* with zero heap allocation. The
// first pass through a fixed computation (step 1 of training) records the
// sequence of workspace requests, carving storage out of a few large
// float64 slabs and growing them as needed. Reset rewinds the sequence
// cursor; every subsequent identical pass replays the recorded sequence,
// handing back the same matrix headers and slab storage with shapes
// checked against the record. Step N therefore touches the allocator but
// never the garbage collector.
//
// Contract:
//
//   - Get returns storage with UNSPECIFIED contents (whatever the previous
//     step left there). Callers must fully overwrite it, or use GetZeroed
//     for buffers that are accumulated into.
//   - Between two Resets the request sequence must match the recorded one
//     shape-for-shape; a mismatch panics (it indicates two computations
//     are sharing one arena, which would silently alias buffers).
//   - Clear forgets the recorded sequence but keeps the slabs and the
//     matrix headers, for when the computation legitimately changes shape
//     (new graph, new batch size): the next pass re-records over them, so
//     once the slabs hold the largest shape seen a change of shape
//     allocates nothing. Matrices handed out before Clear are re-pointed
//     at memory that is reissued — the owner must not use them afterwards.
//   - An Arena is not safe for concurrent use; in the SPMD runtime each
//     rank's model owns its own arena.
//
// Buffers whose lifetime exceeds one step (parameters, their gradients,
// optimizer moments, the model's returned output) stay on ordinary
// tensor.New allocations.
type Arena struct {
	slabs [][]float64
	slab  int // slab currently being carved
	off   int // carve offset within slabs[slab]
	// mats[:live] is the recorded sequence; the headers past it were kept
	// by Clear for the next record.
	mats []*Matrix
	live int
	next int // replay cursor into the record
}

// minSlabFloats is the smallest slab the arena allocates (512 KiB). Growth
// doubles from there, so even a large model settles into a handful of
// slabs.
const minSlabFloats = 1 << 16

// NewArena returns an empty workspace arena.
func NewArena() *Arena { return &Arena{} }

// Get returns a rows×cols workspace matrix. In replay (after a Reset) it
// returns the matrix recorded at this position, panicking if the requested
// shape differs from the recorded one; past the end of the record it grows
// the arena, carving fresh slab storage. The contents are unspecified.
//
// A nil *Arena is valid and falls back to a fresh allocation, so layers
// can hold an optional arena and call Get unconditionally.
func (a *Arena) Get(rows, cols int) *Matrix {
	if a == nil {
		return New(rows, cols)
	}
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: arena negative dimensions %dx%d", rows, cols))
	}
	if a.next < a.live {
		m := a.mats[a.next]
		if m.Rows != rows || m.Cols != cols {
			panic(fmt.Sprintf(
				"tensor: arena shape mismatch at slot %d: recorded %dx%d, requested %dx%d "+
					"(the workspace request sequence must be identical between Resets; "+
					"call Clear when the computation legitimately changes shape)",
				a.next, m.Rows, m.Cols, rows, cols))
		}
		a.next++
		return m
	}
	var m *Matrix
	if a.live < len(a.mats) {
		m = a.mats[a.live]
	} else {
		m = new(Matrix)
		a.mats = append(a.mats, m)
	}
	m.Rows, m.Cols, m.Data = rows, cols, a.carve(rows*cols)
	a.live++
	a.next = a.live
	return m
}

// GetZeroed is Get with the returned storage cleared, for buffers that are
// accumulated into rather than fully overwritten. Like Get it tolerates a
// nil receiver (tensor.New storage is already zeroed).
func (a *Arena) GetZeroed(rows, cols int) *Matrix {
	if a == nil {
		return New(rows, cols)
	}
	m := a.Get(rows, cols)
	clear(m.Data)
	return m
}

// carve bump-allocates need floats, opening a new slab when the current
// ones are exhausted. Slab storage is never moved or freed, so previously
// issued matrices stay valid while the arena grows.
func (a *Arena) carve(need int) []float64 {
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
	a.slabs = append(a.slabs, make([]float64, size))
	a.slab = len(a.slabs) - 1
	a.off = need
	return a.slabs[a.slab][:need:need]
}

// Reset rewinds the arena for the next pass: subsequent Gets replay the
// recorded sequence. Buffers issued before the Reset are logically
// recycled — holding onto one across a Reset aliases the next pass's
// workspace.
func (a *Arena) Reset() { a.next = 0 }

// Clear drops the recorded request sequence and rewinds the bump pointer,
// keeping the slabs as raw capacity and the headers for the next record.
// Use it when the computation changes shape; all previously issued
// matrices become invalid.
func (a *Arena) Clear() {
	a.live = 0
	a.next = 0
	a.slab = 0
	a.off = 0
}

// Slots returns the number of recorded workspace matrices.
func (a *Arena) Slots() int { return a.live }

// Footprint returns the total slab storage in floats.
func (a *Arena) Footprint() int {
	n := 0
	for _, s := range a.slabs {
		n += len(s)
	}
	return n
}
