// Package nn implements the two CTR models of the paper's evaluation — Wide
// & Deep (Cheng et al. 2016) and Deep & Cross (Wang et al. 2017) — as real
// float32 networks with exact forward and backward passes, plus the
// binary-cross-entropy loss and AUC metric the paper reports against.
//
// Weights are held once per cluster in a Network (the engine synchronises
// dense gradients with AllReduce, so every worker's replica is identical by
// construction); per-worker activation buffers live in a State so workers
// can run forward/backward concurrently, and each State writes its
// gradients into destinations its caller owns (Network.NewState).
package nn

import (
	"fmt"

	"hetgmp/internal/tensor"
	"hetgmp/internal/xrand"
)

// Linear is a fully connected layer y = x·W + b.
type Linear struct {
	In, Out int
	W       *tensor.Matrix // In×Out
	B       []float32
	// wt caches Wᵀ (Out×In) so backward computes dIn = dOut·Wᵀ as a plain
	// MatMul with no per-call transpose. NewLinear and unflatten, the only
	// writers of W, refresh it; both run in the serial phase, so concurrent
	// Forward/Backward share it read-only exactly as they share W.
	wt *tensor.Matrix
}

// NewLinear allocates a Xavier-initialised layer.
func NewLinear(in, out int, rng *xrand.RNG) *Linear {
	l := &Linear{In: in, Out: out, W: tensor.NewMatrix(in, out), B: make([]float32, out),
		wt: tensor.NewMatrix(out, in)}
	l.W.XavierInit(rng)
	tensor.Transpose(l.wt, l.W)
	return l
}

// ParamCount returns the number of scalar parameters.
func (l *Linear) ParamCount() int { return l.In*l.Out + l.Out }

// linearState holds one worker's buffers for one Linear layer. A layer owns
// only its output and ReLU mask: dW and dB are views into the model state's
// flat gradient vector, and the input gradient goes wherever backward is told
// to write it. A forward-only state has no mask, dW or dB.
type linearState struct {
	in   *tensor.Matrix // saved input (view of previous layer's output)
	out  *tensor.Matrix
	relu bool      // the layer is followed by a ReLU
	mask []float32 // the ReLU's mask, recorded by forward for backward
	dW   *tensor.Matrix
	dB   []float32
}

// newLinearState allocates the layer's output (and ReLU mask when it trains)
// and, unless grads is nil, points dW and dB at the head of grads — W's
// gradient row-major, then B's, the order flatten writes the parameters in.
// It returns the rest of grads for the next layer.
func newLinearState(l *Linear, maxBatch int, relu bool, grads []float32) (*linearState, []float32) {
	st := &linearState{out: tensor.NewMatrix(maxBatch, l.Out), relu: relu}
	if grads == nil {
		return st, nil
	}
	if relu {
		st.mask = make([]float32, maxBatch*l.Out)
	}
	n := l.In * l.Out
	st.dW = &tensor.Matrix{Rows: l.In, Cols: l.Out, Data: grads[:n:n]}
	st.dB = grads[n : n+l.Out : n+l.Out]
	return st, grads[n+l.Out:]
}

// forward computes out = in·W + b (+ ReLU when the layer has one) for the
// first rows rows of in. A training state records the ReLU mask for backward.
func (l *Linear) forward(st *linearState, in *tensor.Matrix, rows int) *tensor.Matrix {
	st.in = in
	out := &tensor.Matrix{Rows: rows, Cols: l.Out, Data: st.out.Data[:rows*l.Out]}
	inView := &tensor.Matrix{Rows: rows, Cols: l.In, Data: in.Data[:rows*l.In]}
	tensor.MatMul(out, inView, l.W)
	tensor.AddBias(out, l.B)
	if st.relu {
		var mask []float32
		if st.mask != nil {
			mask = st.mask[:rows*l.Out]
		}
		tensor.ReLU(out, mask)
	}
	return out
}

// backward consumes dOut and writes dW and dB. With a non-nil dIn it also
// writes the input gradient dOut·Wᵀ into dIn's first rows rows and returns
// that view; with nil it returns nil, for a head whose model adds the input
// gradient itself.
func (l *Linear) backward(st *linearState, dOut, dIn *tensor.Matrix) *tensor.Matrix {
	rows := dOut.Rows
	if st.mask != nil {
		tensor.ReLUBackward(dOut, st.mask[:rows*l.Out])
	}
	inView := &tensor.Matrix{Rows: rows, Cols: l.In, Data: st.in.Data[:rows*l.In]}
	tensor.MatMulATB(st.dW, inView, dOut)
	for j := range st.dB {
		st.dB[j] = 0
	}
	for r := 0; r < rows; r++ {
		tensor.Add(dOut.Row(r), st.dB)
	}
	if dIn == nil {
		return nil
	}
	view := &tensor.Matrix{Rows: rows, Cols: l.In, Data: dIn.Data[:rows*l.In]}
	tensor.MatMul(view, dOut, l.wt)
	return view
}

// flatten appends the layer's parameters to dst and returns it.
func (l *Linear) flatten(dst []float32) []float32 {
	dst = append(dst, l.W.Data...)
	return append(dst, l.B...)
}

// unflatten reads the layer's parameters from src and returns the tail.
func (l *Linear) unflatten(src []float32) []float32 {
	copy(l.W.Data, src[:len(l.W.Data)])
	tensor.Transpose(l.wt, l.W)
	src = src[len(l.W.Data):]
	copy(l.B, src[:len(l.B)])
	return src[len(l.B):]
}

// checkBatch panics when a caller exceeds the state's allocated batch size.
func checkBatch(rows, maxBatch int) {
	if rows > maxBatch {
		panic(fmt.Sprintf("nn: batch of %d rows exceeds state capacity %d", rows, maxBatch))
	}
}

// towerState is one worker's state for a stack of Linear layers, layer i
// feeding layer i+1. Backward writes layer i's input gradient into dIns[i]:
// dIns[0] is the model's dInput, so the first layer writes the gradient the
// embeddings consume directly; the others are the tower's own. dIns is nil
// in a forward-only state.
type towerState struct {
	layers []*linearState
	dIns   []*tensor.Matrix
}

// newTowerState builds the state of the tower ls. Every layer but the last
// has a ReLU; the last one has one when reluLast. The layers' dW and dB are
// views into grads in order, and the rest of grads is returned.
func newTowerState(ls []*Linear, maxBatch int, reluLast bool, dInput *tensor.Matrix, grads []float32) (*towerState, []float32) {
	t := &towerState{}
	for i, l := range ls {
		var st *linearState
		st, grads = newLinearState(l, maxBatch, reluLast || i < len(ls)-1, grads)
		t.layers = append(t.layers, st)
		switch {
		case dInput == nil:
		case i == 0:
			t.dIns = append(t.dIns, dInput)
		default:
			t.dIns = append(t.dIns, tensor.NewMatrix(maxBatch, l.In))
		}
	}
	return t, grads
}

// forwardTower runs in through the tower and returns the last layer's output.
func forwardTower(ls []*Linear, t *towerState, in *tensor.Matrix, rows int) *tensor.Matrix {
	for i, l := range ls {
		in = l.forward(t.layers[i], in, rows)
	}
	return in
}

// backwardTower propagates dOut down the tower and returns the first
// layer's input gradient: a view of the model's dInput.
func backwardTower(ls []*Linear, t *towerState, dOut *tensor.Matrix) *tensor.Matrix {
	for i := len(ls) - 1; i >= 0; i-- {
		dOut = ls[i].backward(t.layers[i], dOut, t.dIns[i])
	}
	return dOut
}

// addHeadGrad adds a one-output head's input gradient, dLogit[r]·wᵀ, to row
// r of dInput. It has the bits of the rows×1·1×In GEMM plus Add it replaces:
// that GEMM computes +0 + p, which is p unless p = −0, and x + (+0) differs
// from x + (−0) only for x = −0 — which dInput never holds, because the first
// deep layer wrote it as a GEMM sum that starts from +0 (DESIGN §14).
func addHeadGrad(head *Linear, dLogit []float32, dInput *tensor.Matrix) {
	for r, g := range dLogit {
		tensor.Axpy(g, head.W.Data, dInput.Row(r))
	}
}

// checkDests validates the destinations a NewState was given: both nil for
// a forward-only state, or a dInput of at least maxBatch rows × InputDim and
// a grads of exactly ParamCount elements.
func checkDests(net Network, maxBatch int, dInput *tensor.Matrix, grads []float32) {
	if dInput == nil && grads == nil {
		return
	}
	d := net.InputDim()
	if dInput == nil || grads == nil || dInput.Cols != d || dInput.Rows < maxBatch ||
		len(dInput.Data) < maxBatch*d || len(grads) != net.ParamCount() {
		panic(fmt.Sprintf("nn: %s.NewState(%d) needs a dInput of ≥%d×%d and %d grads, or neither",
			net.Name(), maxBatch, maxBatch, d, net.ParamCount()))
	}
}

// checkLayoutEnd panics unless a model's layers viewed all of its gradient
// vector: rest is what is left of it after the last layer.
func checkLayoutEnd(rest []float32, model string) {
	if len(rest) != 0 {
		panic(fmt.Sprintf("nn: %s's layers leave %d of its gradient vector unused", model, len(rest)))
	}
}

// mustTrain panics when a forward-only state reaches a training call.
func mustTrain(trains bool, call string) {
	if !trains {
		panic("nn: " + call + " on a forward-only state (NewState got no dInput or grads)")
	}
}

// copyGrads is Grads for a model state whose layers write into grads: dst
// is that vector when the caller gave it to NewState, else it gets a copy.
func copyGrads(grads, dst []float32, call string) {
	mustTrain(grads != nil, call)
	if len(dst) < len(grads) {
		panic(fmt.Sprintf("nn: %s dst of %d, want %d", call, len(dst), len(grads)))
	}
	if &dst[0] != &grads[0] {
		copy(dst, grads)
	}
}
