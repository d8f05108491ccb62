package nn

import (
	"fmt"

	"hetgmp/internal/tensor"
	"hetgmp/internal/xrand"
)

// DeepFMConfig sizes a DeepFM network.
type DeepFMConfig struct {
	Fields int
	Dim    int
	Hidden []int // MLP widths; default {64, 32}
	Seed   uint64
}

// DeepFM implements the factorisation-machine CTR model of Guo et al.
// (IJCAI 2017), one of the embedding models the paper's Section 5.1 lists
// as supported by the bigraph abstraction. Three components share the field
// embeddings:
//
//   - a first-order linear head over the concatenated embeddings,
//   - the FM second-order interaction Σ_{i<j} ⟨v_i, v_j⟩, computed with the
//     identity ½·Σ_d[(Σ_f v_{f,d})² − Σ_f v_{f,d}²] so it stays O(fields·dim),
//   - a deep MLP tower.
//
// The logit is the sum of the three heads.
type DeepFM struct {
	fields, dim int
	wide        *Linear
	deep        []*Linear
	params      int
	flatBuf     []float32
}

// NewDeepFM builds a DeepFM network.
func NewDeepFM(cfg DeepFMConfig) *DeepFM {
	if cfg.Fields <= 0 || cfg.Dim <= 0 {
		panic(fmt.Sprintf("nn: DeepFM needs positive fields/dim, got %d/%d", cfg.Fields, cfg.Dim))
	}
	if cfg.Hidden == nil {
		cfg.Hidden = []int{64, 32}
	}
	rng := xrand.New(cfg.Seed ^ 0xdf3df3df3df3df3d)
	d := cfg.Fields * cfg.Dim
	m := &DeepFM{fields: cfg.Fields, dim: cfg.Dim, wide: NewLinear(d, 1, rng)}
	in := d
	for _, h := range cfg.Hidden {
		m.deep = append(m.deep, NewLinear(in, h, rng))
		in = h
	}
	m.deep = append(m.deep, NewLinear(in, 1, rng))
	m.params = m.wide.ParamCount()
	for _, l := range m.deep {
		m.params += l.ParamCount()
	}
	return m
}

// Name implements Network.
func (m *DeepFM) Name() string { return "deepfm" }

// InputDim implements Network.
func (m *DeepFM) InputDim() int { return m.fields * m.dim }

// ParamCount implements Network.
func (m *DeepFM) ParamCount() int { return m.params }

type deepFMState struct {
	maxBatch int
	wide     *linearState
	deep     *towerState
	fieldSum *tensor.Matrix // per-sample Σ_f v_{f,d} (batch × dim)
	logits   []float32
	input    *tensor.Matrix // saved forward input for the FM backward
	grads    []float32      // NewState's; nil in a forward-only state
}

// NewState implements Network. The gradient layout is the wide head's, then
// each deep layer's.
func (m *DeepFM) NewState(maxBatch int, dInput *tensor.Matrix, grads []float32) State {
	checkDests(m, maxBatch, dInput, grads)
	st := &deepFMState{
		maxBatch: maxBatch,
		fieldSum: tensor.NewMatrix(maxBatch, m.dim),
		logits:   make([]float32, maxBatch),
		grads:    grads,
	}
	st.wide, grads = newLinearState(m.wide, maxBatch, false, grads)
	st.deep, grads = newTowerState(m.deep, maxBatch, false, dInput, grads)
	checkLayoutEnd(grads, "DeepFM")
	return st
}

// Forward implements Network.
func (m *DeepFM) Forward(s State, input *tensor.Matrix, rows int) []float32 {
	st := s.(*deepFMState)
	checkBatch(rows, st.maxBatch)
	st.input = input

	wide := m.wide.forward(st.wide, input, rows)

	// FM second order via the sum-of-squares identity.
	for r := 0; r < rows; r++ {
		row := input.Row(r)
		sum := st.fieldSum.Row(r)
		for d := 0; d < m.dim; d++ {
			sum[d] = 0
		}
		var sqSum float32
		for f := 0; f < m.fields; f++ {
			for d := 0; d < m.dim; d++ {
				v := row[f*m.dim+d]
				sum[d] += v
				sqSum += v * v
			}
		}
		var fm float32
		for d := 0; d < m.dim; d++ {
			fm += sum[d] * sum[d]
		}
		fm = 0.5 * (fm - sqSum)
		st.logits[r] = wide.At(r, 0) + fm
	}

	out := forwardTower(m.deep, st.deep, input, rows)
	for r := 0; r < rows; r++ {
		st.logits[r] += out.At(r, 0)
	}
	return st.logits[:rows]
}

// Backward implements Network: the deep tower's first layer writes dInput,
// then the wide head and the FM term add theirs, in that order. Neither last
// layer has a ReLU, so dLogit is read, never written.
func (m *DeepFM) Backward(s State, dLogit []float32) *tensor.Matrix {
	st := s.(*deepFMState)
	mustTrain(st.grads != nil, "DeepFM.Backward")
	rows := len(dLogit)

	dMat := &tensor.Matrix{Rows: rows, Cols: 1, Data: dLogit}
	dInput := backwardTower(m.deep, st.deep, dMat)
	m.wide.backward(st.wide, dMat, nil)
	addHeadGrad(m.wide, dLogit, dInput)

	// FM second order: ∂fm/∂v_{f,d} = Σ_f' v_{f',d} − v_{f,d}.
	for r := 0; r < rows; r++ {
		g := dLogit[r]
		in := st.input.Row(r)
		sum := st.fieldSum.Row(r)
		drow := dInput.Row(r)
		for f := 0; f < m.fields; f++ {
			for d := 0; d < m.dim; d++ {
				drow[f*m.dim+d] += g * (sum[d] - in[f*m.dim+d])
			}
		}
	}
	return dInput
}

// Grads implements Network.
func (m *DeepFM) Grads(s State, dst []float32) {
	copyGrads(s.(*deepFMState).grads, dst, "DeepFM.Grads")
}

// ApplyDense implements Network.
func (m *DeepFM) ApplyDense(step func(params, grad []float32), grad []float32) {
	if cap(m.flatBuf) < m.params {
		m.flatBuf = make([]float32, 0, m.params)
	}
	flat := m.wide.flatten(m.flatBuf[:0])
	for _, l := range m.deep {
		flat = l.flatten(flat)
	}
	step(flat, grad)
	rest := m.wide.unflatten(flat)
	for _, l := range m.deep {
		rest = l.unflatten(rest)
	}
	m.flatBuf = flat
}

// FLOPsPerSample implements Network.
func (m *DeepFM) FLOPsPerSample() float64 {
	return 6*float64(m.params) + 4*float64(m.InputDim())
}

// FlattenParams implements Network.
func (m *DeepFM) FlattenParams(dst []float32) {
	m.ApplyDense(func(p, _ []float32) { copy(dst, p) }, dst)
}

// LoadParams implements Network.
func (m *DeepFM) LoadParams(src []float32) {
	m.ApplyDense(func(p, g []float32) { copy(p, g) }, src)
}
