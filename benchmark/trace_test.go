package main

import (
	"testing"
	"time"
)

func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "step", Start: 0, End: 100, Parent: -1},
		{Name: "send", Start: 10, End: 30, Parent: 0},
		{Name: "send", Start: 20, End: 50, Parent: 0},  // overlaps the first: counted once
		{Name: "send", Start: 90, End: 120, Parent: 0}, // runs past its parent: clipped
		{Name: "inner", Start: 12, End: 18, Parent: 1}, // a grandchild takes nothing from "step"
	}
	got := totalsByName(spans)
	if s := got["step"]; s.Total != 100 || s.Self != 50 || s.Count != 1 {
		t.Errorf("step: total %v self %v count %d, want 100 50 1", s.Total, s.Self, s.Count)
	}
	if s := got["send"]; s.Total != 80 || s.Self != 74 || s.Count != 3 {
		t.Errorf("send: total %v self %v count %d, want 80 74 3", s.Total, s.Self, s.Count)
	}
}

func TestTracerRecordsOnlyWhenEnabled(t *testing.T) {
	var none *tracer
	none.end(none.begin("x", root, 0)) // a nil tracer is a no-op

	tr := newTracer()
	if id := tr.begin("early", root, 0); id != off {
		t.Fatalf("span recorded before enable: id %d", id)
	}
	tr.enable(true)
	parent := tr.begin("parent", root, 7)
	child := tr.beginAt("child", parent, 7, time.Now())
	tr.end(child)
	tr.end(parent)
	tr.enable(false)
	tr.begin("late", root, 0)
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].Parent != parent || spans[1].Op != 7 {
		t.Fatalf("spans %+v", spans)
	}
	if spans[0].End < spans[1].End || spans[0].Start > spans[1].Start {
		t.Fatalf("child [%d,%d] outside parent [%d,%d]", spans[1].Start, spans[1].End, spans[0].Start, spans[0].End)
	}
}

func TestTracerAlternates(t *testing.T) {
	tr := newTracer()
	tr.enable(true)
	first := tr.beginAt("op", root, 0, tr.since.Add(stretch/2))
	if first == off {
		t.Fatal("the first stretch must record")
	}
	// A root span in the second stretch is skipped, with its children; a
	// child of a recorded span is recorded whenever it begins.
	skipped := tr.beginAt("op", root, 1, tr.since.Add(stretch+stretch/2))
	if skipped != off || tr.begin("child", skipped, 1) != off {
		t.Fatal("the second stretch must not record")
	}
	if tr.beginAt("child", first, 0, tr.since.Add(stretch+stretch/2)) == off {
		t.Fatal("a recorded span's child was skipped")
	}
	if tr.beginAt("op", root, 2, tr.since.Add(2*stretch+stretch/2)) == off {
		t.Fatal("the third stretch must record")
	}
}

func TestBusyTimeAndTraceOverhead(t *testing.T) {
	r := startRecorder(false)
	at := func(ms int) time.Time { return r.start.Add(time.Duration(ms) * time.Millisecond) }
	r.op(at(0), 10*time.Millisecond, false)
	r.op(at(5), 10*time.Millisecond, true) // overlaps the first: [0,15] in all
	r.op(at(40), 20*time.Millisecond, true)
	r.op(at(100), 10*time.Millisecond, false)
	if got := r.busy(); got != 45*time.Millisecond {
		t.Errorf("busy %v, want 45ms", got)
	}
	// Medians 15 ms traced against 10 ms untraced.
	if got := r.traceOverhead(); got != 0.5 {
		t.Errorf("trace overhead %v, want 0.5", got)
	}
}
