package gnn

import (
	"encoding/gob"
	"fmt"
	"io"

	"meshgnn/internal/nn"
)

// savedTraining extends the model checkpoint with the Adam optimizer's
// moments and step count, enabling *exact* training resumption: a run
// checkpointed at step k and resumed matches an uninterrupted run bit for
// bit (given the same data stream).
type savedTraining struct {
	FormatVersion int
	Model         savedModel
	OptVectors    [][]float64
	OptStep       int
}

// SaveTrainingState serializes the trainer's model and optimizer state.
func SaveTrainingState(w io.Writer, t *Trainer) error {
	st := savedTraining{FormatVersion: formatVersion}
	st.Model.FormatVersion = formatVersion
	st.Model.Config = t.Model.Config
	for _, p := range t.Model.Params() {
		st.Model.Params = append(st.Model.Params, savedParam{
			Name: p.Name, Rows: p.W.Rows, Cols: p.W.Cols, Data: p.W.Data,
		})
	}
	st.OptVectors, st.OptStep = t.Opt.State()
	if err := gob.NewEncoder(w).Encode(st); err != nil {
		return fmt.Errorf("gnn: encoding training state: %w", err)
	}
	return nil
}

// LoadTrainingState reconstructs a trainer saved by SaveTrainingState,
// pairing the restored model with the provided optimizer, whose moments
// and step count are restored.
func LoadTrainingState(r io.Reader, opt *nn.Adam) (*Trainer, error) {
	var st savedTraining
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		return nil, fmt.Errorf("gnn: decoding training state: %w", err)
	}
	if st.FormatVersion != formatVersion {
		return nil, fmt.Errorf("gnn: training-state format %d, library supports %d",
			st.FormatVersion, formatVersion)
	}
	model, err := restoreModel(st.Model)
	if err != nil {
		return nil, err
	}
	if err := opt.Restore(st.OptVectors, st.OptStep); err != nil {
		return nil, fmt.Errorf("gnn: restoring optimizer: %w", err)
	}
	return NewTrainer(model, opt), nil
}
