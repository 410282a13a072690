package gnn

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"meshgnn/internal/comm"
	"meshgnn/internal/graph"
	"meshgnn/internal/mesh"
	"meshgnn/internal/nn"
	"meshgnn/internal/parallel"
	"meshgnn/internal/partition"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from the current implementation")

const goldenLossPath = "testdata/golden_losses.txt"

// goldenRun executes the pinned training configuration: a 3³-element p=2
// fully periodic mesh on two slab ranks, the seeded small model, N-A2A
// halo exchange, Adam, 12 steps. Returns rank 0's per-step consistent
// losses. The deterministic engine makes the result independent of thread
// count, transport, scheduling, and the overlap setting — so any change
// is an intentional arithmetic change, not noise.
func goldenRun(t *testing.T, overlap, sockets bool) []float64 {
	t.Helper()
	parallel.Configure(1, true)
	defer parallel.Configure(0, true)
	box, err := mesh.NewBox(3, 3, 3, 2, [3]bool{true, true, true})
	if err != nil {
		t.Fatal(err)
	}
	part, err := partition.NewCartesian(box, 2, partition.Slabs)
	if err != nil {
		t.Fatal(err)
	}
	locals, err := graph.BuildAll(box, part)
	if err != nil {
		t.Fatal(err)
	}
	cfg := SmallConfig()
	cfg.Overlap = overlap
	body := func(c *comm.Comm) ([]float64, error) {
		rc, err := NewRankContext(c, box, locals[c.Rank()], comm.NeighborAllToAll)
		if err != nil {
			return nil, err
		}
		model, err := NewModel(cfg)
		if err != nil {
			return nil, err
		}
		tr := NewTrainer(model, nn.NewAdam(1e-3))
		x := waveField(rc.Graph)
		losses := make([]float64, 12)
		for i := range losses {
			losses[i] = tr.Step(rc, x, x)
		}
		return losses, nil
	}
	var results [][]float64
	if sockets {
		results, err = comm.RunSocketsCollect(2, body)
	} else {
		results, err = comm.RunCollect(2, body)
	}
	if err != nil {
		t.Fatal(err)
	}
	return results[0]
}

// TestGoldenLossesBitwise compares the pinned training trajectory
// bit-for-bit against the checked-in golden file. Kernel changes that
// alter floating-point grouping (like PR 2's register-blocked GEMM)
// surface here as an explicit, reviewable diff instead of silent drift:
// regenerate with
//
//	go test ./internal/gnn -run TestGoldenLossesBitwise -update
//
// and commit the new golden alongside the kernel change. The last change
// back-propagated that first Linear's node parts per node — the
// pre-activation gradient summed over each node's receiver and sender
// spans, then one product for the input gradient and one for the weight
// gradient, where each edge had multiplied its 3H-wide row and scattered
// it: steps 1, 4 and 10 kept their bits, and the largest change was
// 3.8e-16 relative (step 9). The one before evaluated the edge MLP's first
// Linear as the sum of its input parts' products, (e_k·W_2 + b) + (x_i·W_0
// + x_j·W_1), the node parts once per node, where it had been one product
// over the concatenated 3H row (largest change 2.2e-15 relative, step 10);
// the one before that gave every float64 product one definition — per
// element a math.FMA per k, k ascending, then the bias. The same
// file holds on every kernel rung (internal/tensor's
// TestTrainingBitwiseOnEveryRung). Neither the products nor the float64
// ELU (tensor.Elu) depend on the architecture, and the float64 code that
// defines nothing fused spells its products with rounding conversions, so
// another GOARCH should not need a regeneration either.
//
// The same golden must hold with the overlapped pipeline on either
// transport — overlap is bitwise-invisible — which the (overlap,
// transport) sweep below asserts against the identical file.
func TestGoldenLossesBitwise(t *testing.T) {
	losses := goldenRun(t, false, false)

	if *updateGolden {
		var sb strings.Builder
		sb.WriteString("# Per-step consistent losses of the golden training run, one per line:\n")
		sb.WriteString("# float64 bit pattern (hex) followed by its decimal rendering.\n")
		sb.WriteString("# Regenerate with: go test ./internal/gnn -run TestGoldenLossesBitwise -update\n")
		for _, v := range losses {
			fmt.Fprintf(&sb, "%016x %.17g\n", math.Float64bits(v), v)
		}
		if err := os.MkdirAll(filepath.Dir(goldenLossPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenLossPath, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden rewritten: %s (%d steps)", goldenLossPath, len(losses))
		return
	}

	raw, err := os.ReadFile(goldenLossPath)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	var want []uint64
	for _, line := range strings.Split(string(raw), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		bits, err := strconv.ParseUint(strings.Fields(line)[0], 16, 64)
		if err != nil {
			t.Fatalf("corrupt golden line %q: %v", line, err)
		}
		want = append(want, bits)
	}
	if len(want) != len(losses) {
		t.Fatalf("golden has %d steps, run produced %d", len(want), len(losses))
	}
	for i, v := range losses {
		if bits := math.Float64bits(v); bits != want[i] {
			t.Errorf("step %d: loss %.17g (%016x) != golden %.17g (%016x) — "+
				"if a kernel change intentionally regrouped arithmetic, regenerate with -update",
				i+1, v, bits, math.Float64frombits(want[i]), want[i])
		}
	}

	for _, run := range []struct {
		name             string
		overlap, sockets bool
	}{
		{"overlap/inproc", true, false},
		{"sync/sockets", false, true},
		{"overlap/sockets", true, true},
	} {
		t.Run(run.name, func(t *testing.T) {
			got := goldenRun(t, run.overlap, run.sockets)
			if len(got) != len(want) {
				t.Fatalf("produced %d steps, golden has %d", len(got), len(want))
			}
			for i, v := range got {
				if bits := math.Float64bits(v); bits != want[i] {
					t.Errorf("step %d: loss %.17g (%016x) != golden %016x — overlap/transport must be bitwise-invisible",
						i+1, v, bits, want[i])
				}
			}
		})
	}
}
