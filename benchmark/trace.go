package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary, recorded by the
// benchmark around a call into a layer's public functions. Times are
// nanoseconds since the tracer started; Parent is the index of the span
// that caused this one (-1 for a root) and Op identifies the operation
// (training step or request) the span belongs to (-1 when unknown, as for
// messages sent by a serving rank).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// What begin takes as parent and returns in place of a span index.
const (
	root = -1 // parent: the span has none
	off  = -2 // the span was not recorded, and neither are its children
)

// stretch is how long recording stays on, then off, while a traced window
// runs. A traced run measures what its spans cost by comparing the
// operations of the two kinds of stretch; they alternate this quickly so
// that a host that speeds up or slows down during the window does so for
// both.
const stretch = 250 * time.Millisecond

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so code shared by traced and untraced runs calls it
// unconditionally.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	on    bool
	since time.Time // when recording was enabled
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// enable switches recording on or off. While enabled, recording is on in
// every second stretch, starting with the first.
func (t *tracer) enable(on bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.on, t.since = on, time.Now()
	t.mu.Unlock()
}

// begin opens a span and returns its index, or off when it is not
// recorded.
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return off
	}
	return t.beginAt(name, parent, op, time.Now())
}

// beginAt is begin for a span that started at an earlier moment, such as
// a request's due time.
func (t *tracer) beginAt(name string, parent, op int, at time.Time) int {
	if t == nil || parent == off {
		return off
	}
	now := at.Sub(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on || (parent == root && at.Sub(t.since)/stretch%2 == 1) {
		return off
	}
	t.spans = append(t.spans, span{Name: name, Start: now, End: now, Parent: parent, Op: op})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans, and per span name their count, total and self
// time in nanoseconds, as JSON.
func (t *tracer) write(path string) error {
	spans := t.snapshot()
	data, err := json.Marshal(struct {
		Spans  []span                `json:"spans"`
		Totals map[string]spanTotals `json:"totals_ns"`
	}{spans, totalsByName(spans)})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// spanTotals sums, per span name, the duration and the self time: a
// span's duration minus the part of its interval that its direct children
// cover (overlapping children are counted once).
type spanTotals struct {
	Count int
	Total time.Duration
	Self  time.Duration
}

func totalsByName(spans []span) map[string]spanTotals {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make(map[string]spanTotals)
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		var covered int64
		edge := s.Start // everything before edge is already counted
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		t := out[s.Name]
		t.Count++
		t.Total += time.Duration(s.End - s.Start)
		t.Self += time.Duration(s.End - s.Start - covered)
		out[s.Name] = t
	}
	return out
}
