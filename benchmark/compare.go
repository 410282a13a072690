package main

import (
	"fmt"
	"io"
	"math"
)

// row is one (workload, end-to-end metric) comparison of two sets of runs.
type row struct {
	workload, metric string
	a, b             float64 // medians
	worse            float64 // share of a by which b is worse; negative when better
	spread           float64 // the wider of the two sets' own spreads
	bound            float64
}

// past reports whether b is worse than a by more than the bound.
func (r row) past() bool { return r.worse > r.bound }

// unresolved reports whether the sets' own run-to-run spread exceeds the
// bound, in which case the row decides nothing either way.
func (r row) unresolved() bool { return r.spread > r.bound }

func (r row) status() string {
	switch {
	case r.unresolved():
		return "unresolved"
	case r.past():
		return "WORSE"
	}
	return "ok"
}

// worseBy is the share of a by which b is worse, given the direction.
func worseBy(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}

// compareRows pairs the untraced runs of two sets, workload by workload
// and metric by metric.
func compareRows(a, b []record) []row {
	var rows []row
	for _, name := range workloadNames() {
		for _, d := range endToEnd {
			va, vb := valuesOf(a, name, false, d.name), valuesOf(b, name, false, d.name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			r := row{workload: name, metric: d.name, a: median(va), b: median(vb), bound: d.bound}
			r.worse = worseBy(r.a, r.b, d.better)
			r.spread = math.Max(relSpread(va), relSpread(vb))
			rows = append(rows, r)
		}
	}
	return rows
}

func valuesOf(recs []record, workload string, traced bool, metric string) []float64 {
	var out []float64
	for _, r := range recs {
		if r.Workload == workload && r.Trace == traced {
			if m, ok := r.Result.Metrics[metric]; ok {
				out = append(out, m.Value)
			}
		}
	}
	return out
}

// failedShare is operations failed over operations attempted, across all
// of a workload's runs in the set.
func failedShare(recs []record, workload string) float64 {
	var failed, attempted int
	for _, r := range recs {
		if r.Workload == workload {
			failed += r.Result.Failed
			attempted += r.Result.Attempted
		}
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// exactMismatches lists the per-layer counts that must repeat exactly and
// did not, across the traced runs of both sets. Counts depend on the
// seed, so only runs of one seed are held against each other.
func exactMismatches(a, b []record) []string {
	var out []string
	for _, name := range workloadNames() {
		for _, d := range perLayer {
			if !d.exact {
				continue
			}
			seen := map[int64]float64{}
			for _, r := range append(append([]record(nil), a...), b...) {
				m, ok := r.Result.Metrics[d.name]
				if !ok || r.Workload != name || !r.Trace {
					continue
				}
				if first, ok := seen[r.Seed]; ok && first != m.Value {
					out = append(out, fmt.Sprintf("%s %s: %v and %v with seed %d", name, d.name, first, m.Value, r.Seed))
				}
				seen[r.Seed] = m.Value
			}
		}
	}
	return out
}

// compareSets prints the comparison of set b against set a and reports
// whether b passes: no row past its bound, no rise in the failed share,
// no exact count that differs.
func compareSets(w io.Writer, a, b []record) bool {
	pass := true
	fmt.Fprintf(w, "%-14s %-14s %14s %14s %9s %9s %7s  %s\n",
		"workload", "metric", "median A", "median B", "worse by", "spread", "bound", "")
	for _, r := range compareRows(a, b) {
		fmt.Fprintf(w, "%-14s %-14s %14.6g %14.6g %8.1f%% %8.1f%% %6.0f%%  %s\n",
			r.workload, r.metric, r.a, r.b, 100*r.worse, 100*r.spread, 100*r.bound, r.status())
		if r.past() {
			pass = false
		}
	}
	for _, name := range workloadNames() {
		fa, fb := failedShare(a, name), failedShare(b, name)
		if fa != 0 || fb != 0 {
			fmt.Fprintf(w, "%-14s failed share %.4g -> %.4g\n", name, fa, fb)
		}
		if fb > fa {
			pass = false
		}
	}
	for _, m := range exactMismatches(a, b) {
		fmt.Fprintln(w, "exact count differs:", m)
		pass = false
	}
	return pass
}
