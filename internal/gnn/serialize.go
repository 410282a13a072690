package gnn

import (
	"encoding/gob"
	"fmt"
	"io"
)

// savedModel is the on-wire format: the architecture configuration plus
// every parameter tensor, identified by name so layout drift is caught at
// load time.
type savedModel struct {
	FormatVersion int
	Config        Config
	Params        []savedParam
}

type savedParam struct {
	Name       string
	Rows, Cols int
	Data       []float64
}

// formatVersion guards against loading checkpoints from incompatible
// library revisions.
const formatVersion = 1

// SaveModel serializes the model (architecture + parameters) to w. The
// format is self-describing: LoadModel rebuilds the model from the stored
// configuration, so checkpoints transfer across meshes and rank counts —
// a trained GNN applies to any mesh-based graph (paper Sec. I).
func SaveModel(w io.Writer, m *Model) error {
	sm := savedModel{FormatVersion: formatVersion, Config: m.Config}
	for _, p := range m.Params() {
		sm.Params = append(sm.Params, savedParam{
			Name: p.Name,
			Rows: p.W.Rows,
			Cols: p.W.Cols,
			Data: p.W.Data,
		})
	}
	if err := gob.NewEncoder(w).Encode(sm); err != nil {
		return fmt.Errorf("gnn: encoding model: %w", err)
	}
	return nil
}

// LoadModel reconstructs a model saved by SaveModel.
func LoadModel(r io.Reader) (*Model, error) {
	var sm savedModel
	if err := gob.NewDecoder(r).Decode(&sm); err != nil {
		return nil, fmt.Errorf("gnn: decoding model: %w", err)
	}
	if sm.FormatVersion != formatVersion {
		return nil, fmt.Errorf("gnn: checkpoint format %d, library supports %d",
			sm.FormatVersion, formatVersion)
	}
	return restoreModel(sm)
}

// restoreModel rebuilds a model from its saved form (shared with
// LoadTrainingState). A tensor whose name or shape differs from what the
// stored Config builds is refused, so a checkpoint of another architecture
// never loads as this one.
func restoreModel(sm savedModel) (*Model, error) {
	m, err := NewModel(sm.Config)
	if err != nil {
		return nil, fmt.Errorf("gnn: rebuilding model: %w", err)
	}
	params := m.Params()
	if len(params) != len(sm.Params) {
		return nil, fmt.Errorf("gnn: checkpoint has %d tensors, model has %d",
			len(sm.Params), len(params))
	}
	for i, sp := range sm.Params {
		p := params[i]
		if p.Name != sp.Name || p.W.Rows != sp.Rows || p.W.Cols != sp.Cols {
			return nil, fmt.Errorf("gnn: tensor %d mismatch: checkpoint %s %dx%d, model %s %dx%d",
				i, sp.Name, sp.Rows, sp.Cols, p.Name, p.W.Rows, p.W.Cols)
		}
		if len(sp.Data) != sp.Rows*sp.Cols {
			return nil, fmt.Errorf("gnn: tensor %s has %d values, want %d",
				sp.Name, len(sp.Data), sp.Rows*sp.Cols)
		}
		copy(p.W.Data, sp.Data)
	}
	return m, nil
}
