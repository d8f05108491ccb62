package nn

import (
	"fmt"

	"hetgmp/internal/tensor"
	"hetgmp/internal/xrand"
)

// Network is the dense (non-embedding) part of a CTR model. A single
// Network instance is shared by all simulated workers: the engine averages
// worker gradients with AllReduce every iteration, which keeps replicas
// bit-identical, so materialising one copy is exact, not an approximation.
type Network interface {
	// Name is the workload label used in experiment reports ("wdl", "dcn").
	Name() string
	// InputDim is the concatenated embedding width the model consumes
	// (fields × embedding dim).
	InputDim() int
	// NewState allocates one worker's forward/backward buffers for batches
	// of up to maxBatch rows. It takes the destinations the gradients are
	// consumed from: Backward writes the input gradient into dInput's first
	// rows (dInput has ≥ maxBatch rows × InputDim) and the weight gradients
	// into grads (len ParamCount, laid out as Grads writes them). The state
	// holds views of both and owns neither. With both nil the state is
	// forward-only: it allocates no gradient buffer, and Backward and Grads
	// on it panic.
	NewState(maxBatch int, dInput *tensor.Matrix, grads []float32) State
	// Forward computes logits for the first rows rows of input
	// (rows × InputDim). The state keeps views of input until Backward.
	Forward(st State, input *tensor.Matrix, rows int) []float32
	// Backward propagates dLogit (length rows) and returns the gradient
	// with respect to the input embeddings: a rows × InputDim view of the
	// state's dInput.
	Backward(st State, dLogit []float32) *tensor.Matrix
	// ParamCount is the number of dense scalars (the AllReduce payload).
	ParamCount() int
	// Grads makes dst (len ParamCount) hold st's weight gradients. It does
	// nothing more when dst is the grads the state was built with.
	Grads(st State, dst []float32)
	// ApplyDense applies a flattened gradient with the given step function.
	ApplyDense(step func(params, grad []float32), grad []float32)
	// FLOPsPerSample estimates forward+backward floating-point work for
	// one sample, used by the simulated compute-time model.
	FLOPsPerSample() float64
	// FlattenParams copies the dense parameters into dst (len ParamCount).
	FlattenParams(dst []float32)
	// LoadParams restores the dense parameters from src (len ParamCount).
	LoadParams(src []float32)
}

// State is a per-worker buffer bundle; concrete type depends on the model.
type State interface{}

// ---------------------------------------------------------------------------
// Wide & Deep

// WDLConfig sizes a Wide & Deep network.
type WDLConfig struct {
	Fields int
	Dim    int
	Hidden []int // MLP widths; default {64, 32}
	Seed   uint64
}

// WDL is the Wide & Deep model: a linear ("wide") head plus an MLP ("deep")
// head over the concatenated field embeddings, summed into one logit.
type WDL struct {
	fields, dim int
	wide        *Linear
	deep        []*Linear // hidden layers (ReLU) + final Linear(→1)
	params      int
	flatBuf     []float32
}

// NewWDL builds a Wide & Deep network.
func NewWDL(cfg WDLConfig) *WDL {
	if cfg.Fields <= 0 || cfg.Dim <= 0 {
		panic(fmt.Sprintf("nn: WDL needs positive fields/dim, got %d/%d", cfg.Fields, cfg.Dim))
	}
	if cfg.Hidden == nil {
		cfg.Hidden = []int{64, 32}
	}
	rng := xrand.New(cfg.Seed ^ 0x3d13d13d13d13d1)
	d := cfg.Fields * cfg.Dim
	m := &WDL{fields: cfg.Fields, dim: cfg.Dim, wide: NewLinear(d, 1, rng)}
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
func (m *WDL) Name() string { return "wdl" }

// InputDim implements Network.
func (m *WDL) InputDim() int { return m.fields * m.dim }

// ParamCount implements Network.
func (m *WDL) ParamCount() int { return m.params }

type wdlState struct {
	maxBatch int
	wide     *linearState
	deep     *towerState
	logits   []float32
	grads    []float32 // NewState's; nil in a forward-only state
}

// NewState implements Network. The gradient layout is the wide head's, then
// each deep layer's.
func (m *WDL) NewState(maxBatch int, dInput *tensor.Matrix, grads []float32) State {
	checkDests(m, maxBatch, dInput, grads)
	st := &wdlState{maxBatch: maxBatch, logits: make([]float32, maxBatch), grads: grads}
	st.wide, grads = newLinearState(m.wide, maxBatch, false, grads)
	st.deep, grads = newTowerState(m.deep, maxBatch, false, dInput, grads)
	checkLayoutEnd(grads, "WDL")
	return st
}

// Forward implements Network.
func (m *WDL) Forward(s State, input *tensor.Matrix, rows int) []float32 {
	st := s.(*wdlState)
	checkBatch(rows, st.maxBatch)
	wide := m.wide.forward(st.wide, input, rows)
	out := forwardTower(m.deep, st.deep, input, rows)
	for r := 0; r < rows; r++ {
		st.logits[r] = wide.At(r, 0) + out.At(r, 0)
	}
	return st.logits[:rows]
}

// Backward implements Network: the deep tower's first layer writes dInput,
// then the wide head, which shares dLogit, adds its input gradient to it.
// Neither last layer has a ReLU, so dLogit is read, never written.
func (m *WDL) Backward(s State, dLogit []float32) *tensor.Matrix {
	st := s.(*wdlState)
	mustTrain(st.grads != nil, "WDL.Backward")
	dMat := &tensor.Matrix{Rows: len(dLogit), Cols: 1, Data: dLogit}
	dInput := backwardTower(m.deep, st.deep, dMat)
	m.wide.backward(st.wide, dMat, nil)
	addHeadGrad(m.wide, dLogit, dInput)
	return dInput
}

// Grads implements Network.
func (m *WDL) Grads(s State, dst []float32) {
	copyGrads(s.(*wdlState).grads, dst, "WDL.Grads")
}

// ApplyDense implements Network.
func (m *WDL) ApplyDense(step func(params, grad []float32), grad []float32) {
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

// FLOPsPerSample implements Network: ~2 FLOPs per weight forward, ~4
// backward.
func (m *WDL) FLOPsPerSample() float64 { return 6 * float64(m.params) }

// FlattenParams implements Network.
func (m *WDL) FlattenParams(dst []float32) {
	m.ApplyDense(func(p, _ []float32) { copy(dst, p) }, dst)
}

// LoadParams implements Network.
func (m *WDL) LoadParams(src []float32) {
	m.ApplyDense(func(p, g []float32) { copy(p, g) }, src)
}

// ---------------------------------------------------------------------------
// Deep & Cross

// DCNConfig sizes a Deep & Cross network.
type DCNConfig struct {
	Fields      int
	Dim         int
	CrossLayers int   // default 2
	Hidden      []int // default {128, 64}
	Seed        uint64
}

// DCN is the Deep & Cross model: a stack of explicit cross layers
// x_{l+1} = x₀·(x_lᵀw_l) + b_l + x_l alongside a deep MLP, combined by a
// final linear layer. Per the paper's Figure 8 discussion, DCN carries more
// dense parameters than WDL and therefore more AllReduce traffic.
type DCN struct {
	fields, dim int
	crossW      [][]float32 // per layer, length D
	crossB      [][]float32
	deep        []*Linear
	final       *Linear
	params      int
	flatBuf     []float32
}

// NewDCN builds a Deep & Cross network.
func NewDCN(cfg DCNConfig) *DCN {
	if cfg.Fields <= 0 || cfg.Dim <= 0 {
		panic(fmt.Sprintf("nn: DCN needs positive fields/dim, got %d/%d", cfg.Fields, cfg.Dim))
	}
	if cfg.CrossLayers == 0 {
		cfg.CrossLayers = 2
	}
	if cfg.Hidden == nil {
		cfg.Hidden = []int{128, 64}
	}
	rng := xrand.New(cfg.Seed ^ 0xdc2dc2dc2dc2dc2)
	d := cfg.Fields * cfg.Dim
	m := &DCN{fields: cfg.Fields, dim: cfg.Dim}
	for l := 0; l < cfg.CrossLayers; l++ {
		w := make([]float32, d)
		b := make([]float32, d)
		for i := range w {
			w[i] = (2*rng.Float32() - 1) * 0.05
		}
		m.crossW = append(m.crossW, w)
		m.crossB = append(m.crossB, b)
		m.params += 2 * d
	}
	in := d
	for _, h := range cfg.Hidden {
		m.deep = append(m.deep, NewLinear(in, h, rng))
		m.params += m.deep[len(m.deep)-1].ParamCount()
		in = h
	}
	m.final = NewLinear(d+in, 1, rng)
	m.params += m.final.ParamCount()
	return m
}

// Name implements Network.
func (m *DCN) Name() string { return "dcn" }

// InputDim implements Network.
func (m *DCN) InputDim() int { return m.fields * m.dim }

// ParamCount implements Network.
func (m *DCN) ParamCount() int { return m.params }

type dcnState struct {
	maxBatch int
	// xs[l] is the cross tower input of layer l; xs[len] is the final cross
	// output. xs[0] = x₀ is a view of Forward's input rows.
	xs []*tensor.Matrix
	ss [][]float32 // ss[l][r] = x_l·w_l per sample

	deep  *towerState
	final *linearState
	comb  *tensor.Matrix // concat(crossOut, deepOut)

	logits []float32
	grads  []float32 // NewState's; nil in a forward-only state

	// Backward's own buffers, nil in a forward-only state. dW and dB are
	// views into grads.
	dComb  *tensor.Matrix // the final layer's input gradient, split into:
	dCross *tensor.Matrix
	dDeep  *tensor.Matrix
	dX0    *tensor.Matrix
	dW     [][]float32
	dB     [][]float32
}

// NewState implements Network. The gradient layout is each cross layer's
// (w, then b), then each deep layer's, then the final layer's.
func (m *DCN) NewState(maxBatch int, dInput *tensor.Matrix, grads []float32) State {
	checkDests(m, maxBatch, dInput, grads)
	d := m.InputDim()
	deepOut := m.deep[len(m.deep)-1].Out
	st := &dcnState{
		maxBatch: maxBatch,
		xs:       make([]*tensor.Matrix, len(m.crossW)+1),
		comb:     tensor.NewMatrix(maxBatch, d+deepOut),
		logits:   make([]float32, maxBatch),
		grads:    grads,
	}
	for l := range m.crossW {
		st.ss = append(st.ss, make([]float32, maxBatch))
		st.xs[l+1] = tensor.NewMatrix(maxBatch, d)
	}
	if grads != nil {
		st.dComb = tensor.NewMatrix(maxBatch, d+deepOut)
		st.dCross = tensor.NewMatrix(maxBatch, d)
		st.dDeep = tensor.NewMatrix(maxBatch, deepOut)
		st.dX0 = tensor.NewMatrix(maxBatch, d)
		for range m.crossW {
			st.dW = append(st.dW, grads[:d:d])
			st.dB = append(st.dB, grads[d:2*d:2*d])
			grads = grads[2*d:]
		}
	}
	// Every deep-tower layer keeps a ReLU: the final projection to the
	// logit happens in the combination layer.
	st.deep, grads = newTowerState(m.deep, maxBatch, true, dInput, grads)
	st.final, grads = newLinearState(m.final, maxBatch, false, grads)
	checkLayoutEnd(grads, "DCN")
	return st
}

// Forward implements Network.
func (m *DCN) Forward(s State, input *tensor.Matrix, rows int) []float32 {
	st := s.(*dcnState)
	checkBatch(rows, st.maxBatch)
	d := m.InputDim()

	// Cross tower.
	st.xs[0] = &tensor.Matrix{Rows: rows, Cols: d, Data: input.Data[:rows*d]}
	for l := range m.crossW {
		w, b := m.crossW[l], m.crossB[l]
		xl := st.xs[l]
		xn := st.xs[l+1]
		for r := 0; r < rows; r++ {
			xrow := xl.Row(r)
			s := tensor.Dot(xrow, w)
			st.ss[l][r] = s
			x0 := st.xs[0].Row(r)
			out := xn.Row(r)
			for i := range out {
				out[i] = x0[i]*s + b[i] + xrow[i]
			}
		}
	}
	crossOut := st.xs[len(m.crossW)]

	// Deep tower.
	out := forwardTower(m.deep, st.deep, input, rows)

	// Combine and project.
	deepOut := m.deep[len(m.deep)-1].Out
	comb := &tensor.Matrix{Rows: rows, Cols: d + deepOut, Data: st.comb.Data[:rows*(d+deepOut)]}
	for r := 0; r < rows; r++ {
		row := comb.Row(r)
		copy(row[:d], crossOut.Row(r))
		copy(row[d:], out.Row(r))
	}
	logit := m.final.forward(st.final, comb, rows)
	for r := 0; r < rows; r++ {
		st.logits[r] = logit.At(r, 0)
	}
	return st.logits[:rows]
}

// Backward implements Network.
func (m *DCN) Backward(s State, dLogit []float32) *tensor.Matrix {
	st := s.(*dcnState)
	mustTrain(st.grads != nil, "DCN.Backward")
	rows := len(dLogit)
	d := m.InputDim()
	deepOut := m.deep[len(m.deep)-1].Out

	// The final layer has no ReLU, so dLogit is read, never written.
	dMat := &tensor.Matrix{Rows: rows, Cols: 1, Data: dLogit}
	dComb := m.final.backward(st.final, dMat, st.dComb)

	// Split the combined gradient.
	dCross := &tensor.Matrix{Rows: rows, Cols: d, Data: st.dCross.Data[:rows*d]}
	dDeep := &tensor.Matrix{Rows: rows, Cols: deepOut, Data: st.dDeep.Data[:rows*deepOut]}
	for r := 0; r < rows; r++ {
		row := dComb.Row(r)
		copy(dCross.Row(r), row[:d])
		copy(dDeep.Row(r), row[d:])
	}

	// Deep tower backward: its first layer writes dInput.
	dInput := backwardTower(m.deep, st.deep, dDeep)

	// Cross tower backward, accumulating the x₀ contribution separately.
	dX0 := &tensor.Matrix{Rows: rows, Cols: d, Data: st.dX0.Data[:rows*d]}
	dX0.Zero()
	for l := range m.crossW {
		for i := range st.dW[l] {
			st.dW[l][i] = 0
			st.dB[l][i] = 0
		}
	}
	dXl := dCross // gradient wrt x_{l+1}, walking backwards
	for l := len(m.crossW) - 1; l >= 0; l-- {
		w := m.crossW[l]
		xl := st.xs[l]
		for r := 0; r < rows; r++ {
			dout := dXl.Row(r)
			x0 := st.xs[0].Row(r)
			xrow := xl.Row(r)
			// t = dout·x0 (scalar coupling through s).
			var tcoef float32
			for i := range dout {
				tcoef += dout[i] * x0[i]
			}
			sv := st.ss[l][r]
			dw := st.dW[l]
			db := st.dB[l]
			for i := range dout {
				dw[i] += tcoef * xrow[i]
				db[i] += dout[i]
				// dX0 picks up the x₀·s term.
				dX0.Row(r)[i] += dout[i] * sv
			}
			// dx_l = dout + t·w (in place: dXl becomes gradient wrt x_l).
			for i := range dout {
				dout[i] = dout[i] + tcoef*w[i]
			}
		}
	}
	// At l = 0, x_l IS x₀, so fold both contributions into dInput.
	for i := range dInput.Data[:rows*d] {
		dInput.Data[i] += dXl.Data[i] + dX0.Data[i]
	}
	return dInput
}

// Grads implements Network.
func (m *DCN) Grads(s State, dst []float32) {
	copyGrads(s.(*dcnState).grads, dst, "DCN.Grads")
}

// ApplyDense implements Network.
func (m *DCN) ApplyDense(step func(params, grad []float32), grad []float32) {
	if cap(m.flatBuf) < m.params {
		m.flatBuf = make([]float32, 0, m.params)
	}
	flat := m.flatBuf[:0]
	for l := range m.crossW {
		flat = append(flat, m.crossW[l]...)
		flat = append(flat, m.crossB[l]...)
	}
	for _, l := range m.deep {
		flat = l.flatten(flat)
	}
	flat = m.final.flatten(flat)
	step(flat, grad)
	rest := flat
	for l := range m.crossW {
		copy(m.crossW[l], rest[:len(m.crossW[l])])
		rest = rest[len(m.crossW[l]):]
		copy(m.crossB[l], rest[:len(m.crossB[l])])
		rest = rest[len(m.crossB[l]):]
	}
	for _, l := range m.deep {
		rest = l.unflatten(rest)
	}
	m.final.unflatten(rest)
	m.flatBuf = flat
}

// FLOPsPerSample implements Network.
func (m *DCN) FLOPsPerSample() float64 {
	return 6*float64(m.params) + 4*float64(m.InputDim()*len(m.crossW))
}

// FlattenParams implements Network.
func (m *DCN) FlattenParams(dst []float32) {
	m.ApplyDense(func(p, _ []float32) { copy(dst, p) }, dst)
}

// LoadParams implements Network.
func (m *DCN) LoadParams(src []float32) {
	m.ApplyDense(func(p, g []float32) { copy(p, g) }, src)
}
