package nn

import (
	"math"
	"testing"

	"hetgmp/internal/tensor"
)

func TestDeepFMInputGradients(t *testing.T) {
	m := NewDeepFM(DeepFMConfig{Fields: 3, Dim: 4, Hidden: []int{8}, Seed: 1})
	checkInputGradients(t, m, 5, 6)
}

func TestDeepFMDenseGradients(t *testing.T) {
	m := NewDeepFM(DeepFMConfig{Fields: 2, Dim: 3, Hidden: []int{6}, Seed: 1})
	checkDenseGradients(t, m, 4, 7)
}

func TestDeepFMSecondOrderExact(t *testing.T) {
	// With the wide and deep heads zeroed, the logit must equal
	// Σ_{i<j} ⟨v_i, v_j⟩ computed naively.
	m := NewDeepFM(DeepFMConfig{Fields: 3, Dim: 2, Hidden: []int{4}, Seed: 3})
	zero := make([]float32, m.ParamCount())
	m.LoadParams(zero) // wide and deep contribute nothing
	st := newTrainState(m, 1)
	input := tensor.NewMatrix(1, 6)
	copy(input.Data, []float32{1, 2, 3, 4, 5, 6}) // v0=(1,2) v1=(3,4) v2=(5,6)
	logit := m.Forward(st, input, 1)[0]
	// ⟨v0,v1⟩ = 11, ⟨v0,v2⟩ = 17, ⟨v1,v2⟩ = 39 → 67.
	if math.Abs(float64(logit)-67) > 1e-4 {
		t.Fatalf("FM logit %v, want 67", logit)
	}
	// Bias of the deep tower is zero, ReLU(0) = 0, final bias 0: verified
	// by construction via LoadParams(zeros).
}

func TestDeepFMName(t *testing.T) {
	m := NewDeepFM(DeepFMConfig{Fields: 2, Dim: 2, Seed: 1})
	if m.Name() != "deepfm" {
		t.Error("name wrong")
	}
	if m.InputDim() != 4 {
		t.Error("input dim wrong")
	}
}

func TestDeepFMTrains(t *testing.T) {
	m := NewDeepFM(DeepFMConfig{Fields: 3, Dim: 4, Hidden: []int{8}, Seed: 11})
	// Reuse the shared loss-decrease harness from model_test.go manually.
	st := newTrainState(m, 32)
	input := tensor.NewMatrix(32, m.InputDim())
	labels := make([]float32, 32)
	for i := range input.Data {
		input.Data[i] = float32((i*37)%100)/100 - 0.5
	}
	for i := range labels {
		if i%3 == 0 {
			labels[i] = 1
		}
	}
	dLogit := make([]float32, 32)
	grad := make([]float32, m.ParamCount())
	var first, last float64
	for step := 0; step < 30; step++ {
		logits := m.Forward(st, input, 32)
		loss := BCEWithLogits(logits, labels, dLogit)
		if step == 0 {
			first = loss
		}
		last = loss
		m.Backward(st, dLogit)
		m.Grads(st, grad)
		m.ApplyDense(func(p, g []float32) {
			for i := range p {
				p[i] -= g[i]
			}
		}, grad)
	}
	if last >= first {
		t.Errorf("loss did not decrease: %v -> %v", first, last)
	}
}
