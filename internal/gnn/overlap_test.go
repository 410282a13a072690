package gnn

import (
	"fmt"
	"math"
	"testing"

	"meshgnn/internal/comm"
	"meshgnn/internal/graph"
	"meshgnn/internal/mesh"
	"meshgnn/internal/nn"
	"meshgnn/internal/partition"
)

// overlapArtifacts is everything rank 0 keeps from one short training run
// for the bitwise overlap-vs-synchronous comparison.
type overlapArtifacts struct {
	losses []float64
	params []float64
}

// runOverlapTraining trains the tiny model for a few steps on 2 ranks
// under the given transport, exchange mode, and overlap setting.
func runOverlapTraining(t *testing.T, sockets bool, mode comm.ExchangeMode, overlap bool) overlapArtifacts {
	t.Helper()
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
	cfg := tinyConfig()
	cfg.Overlap = overlap
	body := func(c *comm.Comm) (overlapArtifacts, error) {
		rc, err := NewRankContext(c, box, locals[c.Rank()], mode)
		if err != nil {
			return overlapArtifacts{}, err
		}
		model, err := NewModel(cfg)
		if err != nil {
			return overlapArtifacts{}, err
		}
		tr := NewTrainer(model, nn.NewAdam(1e-3))
		x := waveField(rc.Graph)
		var art overlapArtifacts
		for i := 0; i < 6; i++ {
			art.losses = append(art.losses, tr.Step(rc, x, x))
		}
		for _, p := range model.Params() {
			art.params = append(art.params, p.W.Data...)
		}
		return art, nil
	}
	var res []overlapArtifacts
	if sockets {
		res, err = comm.RunSocketsCollect(2, body)
	} else {
		res, err = comm.RunCollect(2, body)
	}
	if err != nil {
		t.Fatal(err)
	}
	return res[0]
}

// TestOverlapBitwiseIdentical is the tentpole assertion: the phased
// (overlapped) NMP pipeline produces bit-for-bit the same training
// trajectory as the synchronous path, on both transports and under every
// real exchange mode — overlap is a scheduling property, not an
// arithmetic one.
func TestOverlapBitwiseIdentical(t *testing.T) {
	for _, sockets := range []bool{false, true} {
		for _, mode := range []comm.ExchangeMode{comm.NeighborAllToAll, comm.AllToAllMode, comm.NoExchange} {
			name := fmt.Sprintf("inproc/%v", mode)
			if sockets {
				name = fmt.Sprintf("sockets/%v", mode)
			}
			t.Run(name, func(t *testing.T) {
				sync := runOverlapTraining(t, sockets, mode, false)
				over := runOverlapTraining(t, sockets, mode, true)
				if len(sync.losses) != len(over.losses) {
					t.Fatalf("step counts differ: %d vs %d", len(sync.losses), len(over.losses))
				}
				for i := range sync.losses {
					if math.Float64bits(sync.losses[i]) != math.Float64bits(over.losses[i]) {
						t.Errorf("step %d loss: sync %.17g != overlap %.17g",
							i, sync.losses[i], over.losses[i])
					}
				}
				for i := range sync.params {
					if math.Float64bits(sync.params[i]) != math.Float64bits(over.params[i]) {
						t.Fatalf("parameter %d: sync %v != overlap %v", i, sync.params[i], over.params[i])
					}
				}
			})
		}
	}
}

// TestOverlapMatchesUnpartitioned extends the paper's Eq. 2/3 consistency
// to the overlapped pipeline: a 4-rank overlapped evaluation agrees with
// the unpartitioned R=1 reference to machine precision.
func TestOverlapMatchesUnpartitioned(t *testing.T) {
	box, err := mesh.NewBox(4, 2, 2, 2, [3]bool{true, false, false})
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyConfig()
	cfg.Overlap = true
	ref := runForwardLoss(t, box, 1, comm.NeighborAllToAll, cfg, false)
	got := runForwardLoss(t, box, 4, comm.NeighborAllToAll, cfg, false)
	if d := math.Abs(ref.loss - got.loss); d > 1e-12 {
		t.Errorf("overlapped partitioned loss deviates from R=1: |Δ| = %g", d)
	}
}
