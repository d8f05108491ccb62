package nn

import (
	"math"
	"testing"

	"hetgmp/internal/tensor"
	"hetgmp/internal/xrand"
)

// lossOf runs a forward pass and returns the scalar BCE loss for gradient
// checking.
func lossOf(m Network, st State, input *tensor.Matrix, labels []float32, rows int) float64 {
	logits := m.Forward(st, input, rows)
	dl := make([]float32, rows)
	return BCEWithLogits(logits, labels, dl)
}

// checkInputGradients compares the analytic input gradient with central
// finite differences.
func checkInputGradients(t *testing.T, m Network, rows int, seed uint64) {
	t.Helper()
	r := xrand.New(seed)
	d := m.InputDim()
	input := tensor.NewMatrix(rows, d)
	for i := range input.Data {
		input.Data[i] = (2*r.Float32() - 1) * 0.5
	}
	labels := make([]float32, rows)
	for i := range labels {
		if r.Float64() < 0.5 {
			labels[i] = 1
		}
	}
	st := newTrainState(m, rows)

	logits := m.Forward(st, input, rows)
	dLogit := make([]float32, rows)
	BCEWithLogits(logits, labels, dLogit)
	dInput := m.Backward(st, dLogit)

	analytic := make([]float32, len(input.Data))
	copy(analytic, dInput.Data[:len(input.Data)])

	const eps = 1e-3
	checked := 0
	// Check a spread of coordinates (all would be slow).
	for idx := 0; idx < len(input.Data); idx += 1 + len(input.Data)/64 {
		orig := input.Data[idx]
		input.Data[idx] = orig + eps
		lp := lossOf(m, st, input, labels, rows)
		input.Data[idx] = orig - eps
		lm := lossOf(m, st, input, labels, rows)
		input.Data[idx] = orig
		numeric := (lp - lm) / (2 * eps)
		if diff := math.Abs(numeric - float64(analytic[idx])); diff > 2e-3 && diff > 0.15*math.Abs(numeric) {
			t.Errorf("%s: input grad [%d]: analytic %v, numeric %v",
				m.Name(), idx, analytic[idx], numeric)
		}
		checked++
	}
	if checked < 10 {
		t.Fatalf("only %d coordinates checked", checked)
	}
}

// checkDenseGradients compares analytic weight gradients with finite
// differences through ApplyDense's flatten/unflatten round trip.
func checkDenseGradients(t *testing.T, m Network, rows int, seed uint64) {
	t.Helper()
	r := xrand.New(seed)
	d := m.InputDim()
	input := tensor.NewMatrix(rows, d)
	for i := range input.Data {
		input.Data[i] = (2*r.Float32() - 1) * 0.5
	}
	labels := make([]float32, rows)
	for i := range labels {
		if r.Float64() < 0.5 {
			labels[i] = 1
		}
	}
	st := newTrainState(m, rows)
	logits := m.Forward(st, input, rows)
	dLogit := make([]float32, rows)
	BCEWithLogits(logits, labels, dLogit)
	m.Backward(st, dLogit)
	analytic := make([]float32, m.ParamCount())
	m.Grads(st, analytic)

	// Perturb one parameter at a time via ApplyDense with a one-hot "grad".
	const eps = 1e-3
	oneHot := make([]float32, m.ParamCount())
	for idx := 0; idx < m.ParamCount(); idx += 1 + m.ParamCount()/48 {
		bump := func(delta float32) {
			oneHot[idx] = -delta // Step subtracts lr-free: params -= grad
			m.ApplyDense(func(p, g []float32) {
				for i := range p {
					p[i] -= g[i]
				}
			}, oneHot)
			oneHot[idx] = 0
		}
		bump(eps)
		lp := lossOf(m, st, input, labels, rows)
		bump(-2 * eps)
		lm := lossOf(m, st, input, labels, rows)
		bump(eps) // restore
		numeric := (lp - lm) / (2 * eps)
		if diff := math.Abs(numeric - float64(analytic[idx])); diff > 2e-3 && diff > 0.15*math.Abs(numeric) {
			t.Errorf("%s: weight grad [%d]: analytic %v, numeric %v",
				m.Name(), idx, analytic[idx], numeric)
		}
	}
}

func TestWDLInputGradients(t *testing.T) {
	m := NewWDL(WDLConfig{Fields: 3, Dim: 4, Hidden: []int{8, 4}, Seed: 1})
	checkInputGradients(t, m, 5, 2)
}

func TestWDLDenseGradients(t *testing.T) {
	m := NewWDL(WDLConfig{Fields: 2, Dim: 3, Hidden: []int{6}, Seed: 1})
	checkDenseGradients(t, m, 4, 3)
}

func TestDCNInputGradients(t *testing.T) {
	m := NewDCN(DCNConfig{Fields: 3, Dim: 4, CrossLayers: 2, Hidden: []int{8, 4}, Seed: 1})
	checkInputGradients(t, m, 5, 4)
}

func TestDCNDenseGradients(t *testing.T) {
	m := NewDCN(DCNConfig{Fields: 2, Dim: 3, CrossLayers: 2, Hidden: []int{6}, Seed: 1})
	checkDenseGradients(t, m, 4, 5)
}

func TestParamCounts(t *testing.T) {
	w := NewWDL(WDLConfig{Fields: 2, Dim: 3, Hidden: []int{5}, Seed: 1})
	// wide: 6·1+1 = 7; deep: 6·5+5 = 35, 5·1+1 = 6 → 48.
	if got := w.ParamCount(); got != 48 {
		t.Errorf("WDL params = %d, want 48", got)
	}
	d := NewDCN(DCNConfig{Fields: 2, Dim: 3, CrossLayers: 2, Hidden: []int{5}, Seed: 1})
	// cross: 2·(6+6) = 24; deep: 6·5+5 = 35; final: (6+5)·1+1 = 12 → 71.
	if got := d.ParamCount(); got != 71 {
		t.Errorf("DCN params = %d, want 71", got)
	}
}

func TestApplyDenseRoundTrip(t *testing.T) {
	for _, m := range []Network{
		NewWDL(WDLConfig{Fields: 2, Dim: 3, Hidden: []int{4}, Seed: 7}),
		NewDCN(DCNConfig{Fields: 2, Dim: 3, Hidden: []int{4}, Seed: 7}),
	} {
		st := newTrainState(m, 2)
		input := tensor.NewMatrix(2, m.InputDim())
		for i := range input.Data {
			input.Data[i] = 0.1 * float32(i%7)
		}
		before := m.Forward(st, input, 2)
		b0 := make([]float32, 2)
		copy(b0, before)
		// Applying a zero gradient must not change the model.
		zero := make([]float32, m.ParamCount())
		m.ApplyDense(func(p, g []float32) {
			for i := range p {
				p[i] -= g[i]
			}
		}, zero)
		after := m.Forward(st, input, 2)
		for i := range after {
			if after[i] != b0[i] {
				t.Errorf("%s: zero ApplyDense changed logits: %v -> %v", m.Name(), b0[i], after[i])
			}
		}
	}
}

func TestApplyDenseChangesOutput(t *testing.T) {
	m := NewWDL(WDLConfig{Fields: 2, Dim: 3, Hidden: []int{4}, Seed: 7})
	st := newTrainState(m, 1)
	input := tensor.NewMatrix(1, m.InputDim())
	for i := range input.Data {
		input.Data[i] = 0.3
	}
	before := m.Forward(st, input, 1)[0]
	grad := make([]float32, m.ParamCount())
	for i := range grad {
		grad[i] = 0.1
	}
	m.ApplyDense(func(p, g []float32) {
		for i := range p {
			p[i] -= g[i]
		}
	}, grad)
	after := m.Forward(st, input, 1)[0]
	if before == after {
		t.Error("ApplyDense had no effect")
	}
}

func TestNetworkNames(t *testing.T) {
	if NewWDL(WDLConfig{Fields: 1, Dim: 1, Seed: 1}).Name() != "wdl" {
		t.Error("WDL name")
	}
	if NewDCN(DCNConfig{Fields: 1, Dim: 1, Seed: 1}).Name() != "dcn" {
		t.Error("DCN name")
	}
}

func TestFLOPsPositive(t *testing.T) {
	w := NewWDL(WDLConfig{Fields: 4, Dim: 8, Seed: 1})
	d := NewDCN(DCNConfig{Fields: 4, Dim: 8, Seed: 1})
	if w.FLOPsPerSample() <= 0 || d.FLOPsPerSample() <= 0 {
		t.Fatal("non-positive FLOPs")
	}
	// DCN (default hidden {128,64}) must be heavier than WDL ({64,32}),
	// matching the paper's Figure 8 note on DCN's extra dense parameters.
	if d.ParamCount() <= w.ParamCount() {
		t.Errorf("DCN params %d not above WDL %d", d.ParamCount(), w.ParamCount())
	}
}

func TestBatchCapacityPanic(t *testing.T) {
	m := NewWDL(WDLConfig{Fields: 2, Dim: 2, Seed: 1})
	st := newTrainState(m, 2)
	input := tensor.NewMatrix(4, m.InputDim())
	defer func() {
		if recover() == nil {
			t.Fatal("oversized batch accepted")
		}
	}()
	m.Forward(st, input, 4)
}

func TestTrainingReducesLoss(t *testing.T) {
	// End-to-end sanity: a few SGD steps on a fixed batch must reduce loss.
	for _, m := range []Network{
		NewWDL(WDLConfig{Fields: 3, Dim: 4, Hidden: []int{8}, Seed: 11}),
		NewDCN(DCNConfig{Fields: 3, Dim: 4, Hidden: []int{8}, Seed: 11}),
	} {
		r := xrand.New(13)
		const rows = 32
		input := tensor.NewMatrix(rows, m.InputDim())
		for i := range input.Data {
			input.Data[i] = 2*r.Float32() - 1
		}
		labels := make([]float32, rows)
		for i := range labels {
			if r.Float64() < 0.5 {
				labels[i] = 1
			}
		}
		st := newTrainState(m, rows)
		dLogit := make([]float32, rows)
		grad := make([]float32, m.ParamCount())
		var first, last float64
		for step := 0; step < 30; step++ {
			logits := m.Forward(st, input, rows)
			loss := BCEWithLogits(logits, labels, dLogit)
			if step == 0 {
				first = loss
			}
			last = loss
			m.Backward(st, dLogit)
			m.Grads(st, grad)
			m.ApplyDense(func(p, g []float32) {
				for i := range p {
					p[i] -= 2 * g[i]
				}
			}, grad)
		}
		if last >= first {
			t.Errorf("%s: loss did not decrease: %v -> %v", m.Name(), first, last)
		}
	}
}

func BenchmarkWDLForwardBackward(b *testing.B) {
	m := NewWDL(WDLConfig{Fields: 26, Dim: 32, Seed: 1})
	st := newTrainState(m, 256)
	input := tensor.NewMatrix(256, m.InputDim())
	r := xrand.New(1)
	for i := range input.Data {
		input.Data[i] = r.Float32()
	}
	labels := make([]float32, 256)
	dLogit := make([]float32, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		logits := m.Forward(st, input, 256)
		BCEWithLogits(logits, labels, dLogit)
		m.Backward(st, dLogit)
	}
}

func BenchmarkDCNForwardBackward(b *testing.B) {
	m := NewDCN(DCNConfig{Fields: 26, Dim: 32, Seed: 1})
	st := newTrainState(m, 256)
	input := tensor.NewMatrix(256, m.InputDim())
	r := xrand.New(1)
	for i := range input.Data {
		input.Data[i] = r.Float32()
	}
	labels := make([]float32, 256)
	dLogit := make([]float32, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		logits := m.Forward(st, input, 256)
		BCEWithLogits(logits, labels, dLogit)
		m.Backward(st, dLogit)
	}
}
