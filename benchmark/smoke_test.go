package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestSmoke runs every workload end to end at tiny shapes with every
// correctness gate on, through the same entry point as the command line:
// all of them untraced, and one of each kind traced as well.
func TestSmoke(t *testing.T) {
	traced := map[string]bool{"train_halo": true, "serve_burst": true, "rollout_f32": true}
	for _, name := range workloadNames() {
		for _, trace := range []string{"0", "1"} {
			if trace == "1" && !traced[name] {
				continue
			}
			var out, errOut bytes.Buffer
			code := run([]string{"-smoke", "-workload", name, "-seed", "5", "-seconds", "0.2", "-trace", trace}, &out, &errOut)
			if code != 0 {
				t.Fatalf("%s trace=%s: exit %d\n%s%s", name, trace, code, out.String(), errOut.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&res); err != nil {
				t.Fatalf("%s trace=%s: last line is not a result: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%s: correct %v, attempted %d, failed %d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if trace == "1" {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%s: %d metrics, want %d", name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%s: metric %s missing or in unit %q", name, trace, d.name, m.Unit)
				}
				if trace == "0" && !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", name, d.name, m.Value)
				}
			}
		}
	}
}
