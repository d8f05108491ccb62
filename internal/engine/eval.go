package engine

import (
	"hetgmp/internal/nn"
	"hetgmp/internal/tensor"
)

// Evaluate scores the test set (capped at Config.EvalSamples) against the
// current primary embeddings and dense weights, returning the AUC. It is an
// out-of-band measurement — no simulated time or traffic is charged, just
// as the paper's convergence curves are measured on a held-out set.
func (t *Trainer) Evaluate() float64 {
	cfg := &t.cfg
	test := cfg.Test
	if test == nil || len(test.Samples) == 0 {
		return 0.5
	}
	n := len(test.Samples)
	if cfg.EvalSamples > 0 && cfg.EvalSamples < n {
		n = cfg.EvalSamples
	}
	if t.evalState == nil {
		// Forward-only: no gradient buffer is allocated.
		t.evalState = t.model.NewState(evalBatch, nil, nil)
		t.evalInput = tensor.NewMatrix(evalBatch, t.model.InputDim())
		t.evalScores = make([]float32, 0, n)
		t.evalLabels = make([]float32, 0, n)
	}
	t.evalScores = t.evalScores[:0]
	t.evalLabels = t.evalLabels[:0]
	fields := test.NumFields
	dim := cfg.Dim
	for start := 0; start < n; start += evalBatch {
		endIdx := start + evalBatch
		if endIdx > n {
			endIdx = n
		}
		bs := endIdx - start
		for r := 0; r < bs; r++ {
			s := &test.Samples[start+r]
			row := t.evalInput.Row(r)
			for f := 0; f < fields; f++ {
				copy(row[f*dim:(f+1)*dim], t.table.PrimaryRow(s.Features[f]))
			}
			t.evalLabels = append(t.evalLabels, s.Label)
		}
		logits := t.model.Forward(t.evalState, t.evalInput, bs)
		t.evalScores = append(t.evalScores, logits...)
	}
	return nn.AUC(t.evalScores, t.evalLabels)
}

const evalBatch = 512
