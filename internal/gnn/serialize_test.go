package gnn

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"meshgnn/internal/comm"
	"meshgnn/internal/graph"
	"meshgnn/internal/mesh"
	"meshgnn/internal/nn"
	"meshgnn/internal/partition"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	m1, err := NewModel(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Perturb parameters away from the deterministic init so the test
	// proves data transfer, not reconstruction.
	rng := rand.New(rand.NewSource(99))
	for _, p := range m1.Params() {
		for i := range p.W.Data {
			p.W.Data[i] += 0.01 * rng.NormFloat64()
		}
	}
	var buf bytes.Buffer
	if err := SaveModel(&buf, m1); err != nil {
		t.Fatal(err)
	}
	m2, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	p1, p2 := m1.Params(), m2.Params()
	for i := range p1 {
		if !p1[i].W.Equal(p2[i].W) {
			t.Fatalf("parameter %s differs after round trip", p1[i].Name)
		}
	}
	if m2.Config != m1.Config {
		t.Fatal("config not preserved")
	}
}

func TestLoadModelCorruptStream(t *testing.T) {
	if _, err := LoadModel(bytes.NewReader([]byte("not a checkpoint"))); err == nil {
		t.Fatal("expected error for corrupt stream")
	}
}

// TestLoadModelRejectsAttentionCheckpoint guards checkpoints written when
// the model could swap its NMP processors for attention layers. gob drops
// the Config.Attention field the library no longer has, so the stored
// configuration decodes as an NMP model; the tensor list — each layer's
// value, score and node MLPs — must then fail the count/name check rather
// than load into the wrong architecture.
func TestLoadModelRejectsAttentionCheckpoint(t *testing.T) {
	type attentionConfig struct {
		Name                 string
		InputNodeFeatures    int
		OutputNodeFeatures   int
		HiddenDim            int
		MessagePassingLayers int
		MLPHiddenLayers      int
		EdgeMode             int
		Attention            bool
		Seed                 int64
	}
	cfg := tinyConfig()
	h, k := cfg.HiddenDim, cfg.MLPHiddenLayers
	rng := rand.New(rand.NewSource(cfg.Seed))
	mlps := []*nn.MLP{
		nn.NewMLP("enc.node", cfg.InputNodeFeatures, h, h, k, true, rng),
		nn.NewMLP("enc.edge", edgeInputCols, h, h, k, true, rng),
	}
	for i := 0; i < cfg.MessagePassingLayers; i++ {
		name := fmt.Sprintf("att%d", i)
		mlps = append(mlps,
			nn.NewMLP(name+".value", 3*h, h, h, k, true, rng),
			nn.NewMLP(name+".score", 3*h, h, 1, k, false, rng),
			nn.NewMLP(name+".node", 2*h, h, h, k, true, rng))
	}
	mlps = append(mlps, nn.NewMLP("dec.node", h, h, cfg.OutputNodeFeatures, k, false, rng))
	var params []savedParam
	for _, m := range mlps {
		for _, p := range m.Params() {
			params = append(params, savedParam{Name: p.Name, Rows: p.W.Rows, Cols: p.W.Cols, Data: p.W.Data})
		}
	}
	checkpoint := struct {
		FormatVersion int
		Config        attentionConfig
		Params        []savedParam
	}{
		FormatVersion: formatVersion,
		Config: attentionConfig{
			Name:                 cfg.Name,
			InputNodeFeatures:    cfg.InputNodeFeatures,
			OutputNodeFeatures:   cfg.OutputNodeFeatures,
			HiddenDim:            h,
			MessagePassingLayers: cfg.MessagePassingLayers,
			MLPHiddenLayers:      k,
			EdgeMode:             edgeInputCols,
			Attention:            true,
			Seed:                 cfg.Seed,
		},
		Params: params,
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(checkpoint); err != nil {
		t.Fatal(err)
	}
	m, err := LoadModel(&buf)
	if err == nil {
		t.Fatalf("LoadModel accepted an attention checkpoint as a %d-layer NMP model", len(m.Layers))
	}
	if !strings.Contains(err.Error(), "tensor") {
		t.Fatalf("LoadModel failed before the tensor check: %v", err)
	}
}

// legacyConfig is Config as checkpoints wrote it while the edge input had
// a second, 7-column mode (EdgeMode) and the Config carried the trainer's
// batch size (TrainBatch).
type legacyConfig struct {
	Name                 string
	InputNodeFeatures    int
	OutputNodeFeatures   int
	HiddenDim            int
	MessagePassingLayers int
	MLPHiddenLayers      int
	EdgeMode             int
	Overlap              bool
	Seed                 int64
	Threads              int
	Precision            Precision
	TrainBatch           int
}

// TestLoadModelAcrossConfigChange loads checkpoints written with the
// legacy Config: a 4-column one loads bit for bit whatever TrainBatch it
// recorded, and a 7-column one (its enc.edge input weight has 7 rows) is
// refused by the tensor-shape check instead of loading as a 4-column model.
func TestLoadModelAcrossConfigChange(t *testing.T) {
	cfg := tinyConfig()
	h, k := cfg.HiddenDim, cfg.MLPHiddenLayers
	legacy := func(edgeMode int, params []savedParam) *bytes.Buffer {
		checkpoint := struct {
			FormatVersion int
			Config        legacyConfig
			Params        []savedParam
		}{
			FormatVersion: formatVersion,
			Config: legacyConfig{
				Name:                 cfg.Name,
				InputNodeFeatures:    cfg.InputNodeFeatures,
				OutputNodeFeatures:   cfg.OutputNodeFeatures,
				HiddenDim:            h,
				MessagePassingLayers: cfg.MessagePassingLayers,
				MLPHiddenLayers:      k,
				EdgeMode:             edgeMode,
				Seed:                 cfg.Seed,
				TrainBatch:           3,
			},
			Params: params,
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(checkpoint); err != nil {
			t.Fatal(err)
		}
		return &buf
	}
	saved := func(params []*nn.Param) []savedParam {
		var out []savedParam
		for _, p := range params {
			out = append(out, savedParam{Name: p.Name, Rows: p.W.Rows, Cols: p.W.Cols, Data: p.W.Data})
		}
		return out
	}

	t.Run("edge4", func(t *testing.T) {
		m1, err := NewModel(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(5))
		for _, p := range m1.Params() {
			for i := range p.W.Data {
				p.W.Data[i] += 0.01 * rng.NormFloat64()
			}
		}
		m2, err := LoadModel(legacy(4, saved(m1.Params())))
		if err != nil {
			t.Fatal(err)
		}
		if m2.Config != cfg {
			t.Fatalf("config %+v, want %+v", m2.Config, cfg)
		}
		p1, p2 := m1.Params(), m2.Params()
		for i := range p1 {
			if d := floatBitDiff(p1[i].W.Data, p2[i].W.Data); d != 0 {
				t.Fatalf("parameter %s: %d values differ bitwise", p1[i].Name, d)
			}
		}
	})

	t.Run("edge7", func(t *testing.T) {
		m, err := NewModel(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// The legacy 7-column model: the same tensors, but an edge encoder
		// that reads 7 columns.
		edge7 := nn.NewMLP("enc.edge", 7, h, h, k, true, rand.New(rand.NewSource(cfg.Seed)))
		params := append(append(append([]*nn.Param(nil), m.NodeEncoder.Params()...),
			edge7.Params()...), m.Params()[len(m.NodeEncoder.Params())+len(edge7.Params()):]...)
		if _, err := LoadModel(legacy(7, saved(params))); err == nil {
			t.Fatal("LoadModel accepted a 7-column checkpoint")
		} else if !strings.Contains(err.Error(), "tensor") || !strings.Contains(err.Error(), "enc.edge") {
			t.Fatalf("LoadModel refused the 7-column checkpoint, but not by the tensor-shape check: %v", err)
		}
	})
}

// Cross-mesh transfer: a model trained (well, perturbed) on one mesh must
// produce identical predictions after a save/load cycle when evaluated on
// a *different* mesh — different element counts, polynomial order, and
// periodicity — because the GNN is mesh-agnostic (paper Sec. I: "the same
// GNN model, once trained, can be applied to any mesh-based graph").
func TestCrossMeshInferenceAfterLoad(t *testing.T) {
	cfg := tinyConfig()
	m1, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveModel(&buf, m1); err != nil {
		t.Fatal(err)
	}
	m2, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}

	// Mesh B: different shape, order, and periodicity from the tiny
	// 2x2x1 p=1 test mesh.
	boxB, err := mesh.NewBox(3, 2, 4, 3, [3]bool{false, true, false})
	if err != nil {
		t.Fatal(err)
	}
	lB, err := graph.BuildSingle(boxB)
	if err != nil {
		t.Fatal(err)
	}
	err = comm.Run(1, func(c *comm.Comm) error {
		rc, err := NewRankContext(c, boxB, lB, comm.NoExchange)
		if err != nil {
			return err
		}
		x := waveField(rc.Graph)
		y1 := m1.Forward(rc, x)
		y2 := m2.Forward(rc, x)
		if d := y1.MaxAbsDiff(y2); d > 0 {
			t.Errorf("loaded model deviates on new mesh by %g", d)
		}
		if y1.Rows != rc.Graph.NumLocal() {
			t.Error("wrong output shape on new mesh")
		}
		var bad int
		for _, v := range y1.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				bad++
			}
		}
		if bad > 0 {
			t.Errorf("%d non-finite outputs on new mesh", bad)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// A loaded model must remain consistent when evaluated distributed on the
// new mesh.
func TestLoadedModelDistributedConsistency(t *testing.T) {
	cfg := tinyConfig()
	m1, _ := NewModel(cfg)
	var buf bytes.Buffer
	if err := SaveModel(&buf, m1); err != nil {
		t.Fatal(err)
	}
	// The checkpoint seeds the model identically on every rank: model
	// construction inside each goroutine decodes its own copy.
	checkpoint := buf.Bytes()

	box, err := mesh.NewBox(4, 2, 2, 2, [3]bool{})
	if err != nil {
		t.Fatal(err)
	}
	run := func(r int) float64 {
		locals := buildRanks(t, box, r)
		results, err := comm.RunCollect(r, func(c *comm.Comm) (float64, error) {
			rc, err := NewRankContext(c, box, locals[c.Rank()], comm.NeighborAllToAll)
			if err != nil {
				return 0, err
			}
			m, err := LoadModel(bytes.NewReader(checkpoint))
			if err != nil {
				return 0, err
			}
			x := waveField(rc.Graph)
			y := m.Forward(rc, x)
			var loss ConsistentMSE
			return loss.Forward(rc, y, x), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return results[0]
	}
	l1, l4 := run(1), run(4)
	if rel := math.Abs(l1-l4) / (1 + l1); rel > 1e-12 {
		t.Fatalf("loaded model inconsistent: %v vs %v", l1, l4)
	}
}

func buildRanks(t *testing.T, box *mesh.Box, r int) []*graph.Local {
	t.Helper()
	strat := partition.Blocks
	if r == 1 {
		strat = partition.Slabs
	}
	part, err := partition.NewCartesian(box, r, strat)
	if err != nil {
		t.Fatal(err)
	}
	locals, err := graph.BuildAll(box, part)
	if err != nil {
		t.Fatal(err)
	}
	return locals
}
