package main

import (
	"io"
	"testing"
)

// set builds untraced train_halo runs with the given op_p50_ms values and
// everything else constant.
func set(failed int, p50 ...float64) []record {
	var recs []record
	for _, v := range p50 {
		m := map[string]measured{}
		for _, d := range endToEnd {
			m[d.name] = measured{Value: 100, Unit: d.unit}
		}
		m["op_p50_ms"] = measured{Value: v, Unit: "ms"}
		recs = append(recs, record{Workload: "train_halo", Seed: 1, Result: result{Correct: true, Attempted: 1000, Failed: failed, Metrics: m}})
	}
	return recs
}

func p50Row(t *testing.T, a, b []record) row {
	t.Helper()
	for _, r := range compareRows(a, b) {
		if r.metric == "op_p50_ms" {
			return r
		}
	}
	t.Fatal("no op_p50_ms row")
	return row{}
}

func TestCompareBound(t *testing.T) {
	// op_p50_ms may worsen by a quarter.
	base := set(0, 10, 10.1, 9.9)
	within, past := set(0, 11, 11.1, 10.9), set(0, 13, 13.1, 12.9)
	if r := p50Row(t, base, within); r.bound != 0.25 || r.past() || r.status() != "ok" {
		t.Errorf("10%% worse under a 25%% bound: %+v", r)
	}
	if r := p50Row(t, base, past); !r.past() || r.status() != "WORSE" {
		t.Errorf("30%% worse under a 25%% bound: %+v", r)
	}
	if r := p50Row(t, base, set(0, 8, 8.1, 7.9)); r.past() || r.worse >= 0 {
		t.Errorf("an improvement reads as worse: %+v", r)
	}
	if r := p50Row(t, base, set(0, 7, 10, 13)); r.status() != "unresolved" {
		t.Errorf("a set spread wider than the bound must be unresolved: %+v", r)
	}
	if !compareSets(io.Discard, base, within) {
		t.Error("sets within the bound must pass")
	}
	if compareSets(io.Discard, base, past) {
		t.Error("a row past its bound must fail")
	}
}

func TestCompareDirection(t *testing.T) {
	if got := worseBy(100, 80, "higher"); got != 0.2 {
		t.Errorf("throughput 100 -> 80 is worse by %v, want 0.2", got)
	}
	if got := worseBy(100, 80, "lower"); got != -0.2 {
		t.Errorf("latency 100 -> 80 is worse by %v, want -0.2", got)
	}
}

func TestCompareFailedShare(t *testing.T) {
	if compareSets(io.Discard, set(0, 10, 10, 10), set(1, 10, 10, 10)) {
		t.Error("a rise in the failed share must fail")
	}
	if !compareSets(io.Discard, set(1, 10, 10, 10), set(1, 10, 10, 10)) {
		t.Error("an unchanged failed share must pass")
	}
}

func TestCompareExactCounts(t *testing.T) {
	traced := func(seed int64, msgs float64) record {
		return record{Workload: "train_halo", Seed: seed, Trace: true, Result: result{Correct: true, Attempted: 1,
			Metrics: map[string]measured{"comm.msgs_per_eval": {Value: msgs, Unit: "count"}}}}
	}
	if got := exactMismatches([]record{traced(1, 20)}, []record{traced(1, 20), traced(2, 24)}); len(got) != 0 {
		t.Errorf("equal counts per seed reported as differing: %v", got)
	}
	if got := exactMismatches([]record{traced(1, 20)}, []record{traced(1, 21)}); len(got) != 1 {
		t.Errorf("differing counts not reported: %v", got)
	}
}
