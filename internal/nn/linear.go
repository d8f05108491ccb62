// Package nn implements the two CTR models of the paper's evaluation — Wide
// & Deep (Cheng et al. 2016) and Deep & Cross (Wang et al. 2017) — as real
// float32 networks with exact forward and backward passes, plus the
// binary-cross-entropy loss and AUC metric the paper reports against.
//
// Weights are held once per cluster in a Network (the engine synchronises
// dense gradients with AllReduce, so every worker's replica is identical by
// construction); per-worker activation and gradient buffers live in a State
// so workers can run forward/backward concurrently.
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

// linearState holds one worker's buffers for one Linear layer.
type linearState struct {
	in   *tensor.Matrix // saved input (view of previous layer's output)
	out  *tensor.Matrix
	dIn  *tensor.Matrix
	dW   *tensor.Matrix
	dB   []float32
	mask []float32 // ReLU mask when the layer is followed by an activation
}

func newLinearState(l *Linear, maxBatch int, relu bool) *linearState {
	st := &linearState{
		out: tensor.NewMatrix(maxBatch, l.Out),
		dIn: tensor.NewMatrix(maxBatch, l.In),
		dW:  tensor.NewMatrix(l.In, l.Out),
		dB:  make([]float32, l.Out),
	}
	if relu {
		st.mask = make([]float32, maxBatch*l.Out)
	}
	return st
}

// forward computes out = in·W + b (+ ReLU when the layer has a mask) for
// the first rows rows of in.
func (l *Linear) forward(st *linearState, in *tensor.Matrix, rows int) *tensor.Matrix {
	st.in = in
	out := &tensor.Matrix{Rows: rows, Cols: l.Out, Data: st.out.Data[:rows*l.Out]}
	inView := &tensor.Matrix{Rows: rows, Cols: l.In, Data: in.Data[:rows*l.In]}
	tensor.MatMul(out, inView, l.W)
	tensor.AddBias(out, l.B)
	if st.mask != nil {
		tensor.ReLU(out, st.mask[:rows*l.Out])
	}
	return out
}

// backward consumes dOut, accumulates dW/dB, and returns dIn.
func (l *Linear) backward(st *linearState, dOut *tensor.Matrix) *tensor.Matrix {
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
	dIn := &tensor.Matrix{Rows: rows, Cols: l.In, Data: st.dIn.Data[:rows*l.In]}
	tensor.MatMul(dIn, dOut, l.wt)
	return dIn
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

func (st *linearState) flattenGrads(dst []float32) []float32 {
	dst = append(dst, st.dW.Data...)
	return append(dst, st.dB...)
}

// checkBatch panics when a caller exceeds the state's allocated batch size.
func checkBatch(rows, maxBatch int) {
	if rows > maxBatch {
		panic(fmt.Sprintf("nn: batch of %d rows exceeds state capacity %d", rows, maxBatch))
	}
}
