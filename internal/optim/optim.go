// Package optim provides the optimizers the reproduction trains with: plain
// SGD and AdaGrad, each in a dense variant (for the DNN weights) and a
// sparse, per-embedding variant (for the embedding table, where only the
// rows a mini-batch touched are updated).
package optim

import (
	"fmt"

	"hetgmp/internal/tensor"
)

// Sparse updates one embedding row at a time and may keep per-feature state
// (AdaGrad accumulators). Implementations must be safe for concurrent calls
// on distinct features.
type Sparse interface {
	// Apply updates row (the embedding vector of feature x) in place with
	// gradient grad.
	Apply(x int32, row, grad []float32)
	// Name identifies the rule in experiment reports.
	Name() string
}

// Dense updates a whole parameter tensor in place.
type Dense interface {
	Step(params, grad []float32)
	Name() string
}

// Linearizable is an optional capability of Sparse rules: a rule is linear
// when applying gradients g1 then g2 to a row lands (up to float rounding)
// where applying g1+g2 once would, and the clock advance is the only other
// observable effect. Stateful rules like AdaGrad renormalise each Apply by
// the running accumulator, so they are not linear. Nothing in the training
// path consults it; it stays because benchmark/wrap.go's optimizer wrapper
// forwards it and its tests check that a wrapped rule keeps or lacks it.
type Linearizable interface {
	// Linear reports whether Apply is linear in the gradient.
	Linear() bool
}

// IsLinear reports whether s declares the linear-apply capability.
func IsLinear(s Sparse) bool {
	l, ok := s.(Linearizable)
	return ok && l.Linear()
}

// ChunkedDense is an optional capability of Dense rules: StepAt applies the
// same elementwise update as Step restricted to params[offset:offset+len],
// letting the engine sweep one dense step with several goroutines over
// disjoint chunks. Because the update is elementwise, any chunking produces
// bit-identical parameters.
type ChunkedDense interface {
	StepAt(offset int, params, grad []float32)
}

// SGD is stochastic gradient descent with a fixed learning rate.
type SGD struct {
	LR float32
}

// NewSGD returns an SGD rule; it panics on a non-positive learning rate.
func NewSGD(lr float32) *SGD {
	if lr <= 0 {
		panic(fmt.Sprintf("optim: SGD learning rate must be positive, got %g", lr))
	}
	return &SGD{LR: lr}
}

// Apply implements Sparse. It panics, before writing anything, unless row
// and grad have one length.
func (s *SGD) Apply(x int32, row, grad []float32) {
	if len(row) != len(grad) {
		panic(fmt.Sprintf("optim: SGD.Apply on feature %d: row of %d elements, gradient of %d", x, len(row), len(grad)))
	}
	for i, g := range grad {
		row[i] -= s.LR * g
	}
}

// Step implements Dense.
func (s *SGD) Step(params, grad []float32) {
	for i, g := range grad {
		params[i] -= s.LR * g
	}
}

// Linear implements Linearizable: SGD keeps no per-feature state and its
// update is a scaled subtraction.
func (s *SGD) Linear() bool { return true }

// StepAt implements ChunkedDense; SGD keeps no positional state, so the
// offset is irrelevant.
func (s *SGD) StepAt(_ int, params, grad []float32) { s.Step(params, grad) }

// Name implements Sparse and Dense.
func (s *SGD) Name() string { return "sgd" }

// AdaGrad adapts per-coordinate learning rates by the accumulated squared
// gradient, the standard choice for sparse CTR embeddings where feature
// frequencies span several orders of magnitude.
type AdaGrad struct {
	LR  float32
	Eps float32
	// accum holds the running squared-gradient sums, dim per feature.
	accum []float32
	dim   int
}

// NewAdaGrad returns an AdaGrad rule over numFeatures embeddings of the
// given dimension.
func NewAdaGrad(lr float32, numFeatures, dim int) *AdaGrad {
	if lr <= 0 {
		panic(fmt.Sprintf("optim: AdaGrad learning rate must be positive, got %g", lr))
	}
	return &AdaGrad{LR: lr, Eps: 1e-6, accum: make([]float32, numFeatures*dim), dim: dim}
}

// Apply implements Sparse with tensor.AdaGradStep on feature x's slice of
// the accumulator. It panics, before writing anything, unless row and grad
// both have dim elements.
func (a *AdaGrad) Apply(x int32, row, grad []float32) {
	if len(row) != a.dim || len(grad) != a.dim {
		panic(fmt.Sprintf("optim: AdaGrad.Apply on feature %d: row of %d elements, gradient of %d, dim %d", x, len(row), len(grad), a.dim))
	}
	off := int(x) * a.dim
	tensor.AdaGradStep(a.accum[off:off+a.dim], row, grad, a.LR, a.Eps)
}

// Name implements Sparse.
func (a *AdaGrad) Name() string { return "adagrad" }

// DenseAdaGrad is AdaGrad over one dense tensor.
type DenseAdaGrad struct {
	LR    float32
	Eps   float32
	accum []float32
}

// NewDenseAdaGrad returns a dense AdaGrad rule for a tensor of n parameters.
func NewDenseAdaGrad(lr float32, n int) *DenseAdaGrad {
	if lr <= 0 {
		panic(fmt.Sprintf("optim: AdaGrad learning rate must be positive, got %g", lr))
	}
	return &DenseAdaGrad{LR: lr, Eps: 1e-6, accum: make([]float32, n)}
}

// Step implements Dense.
func (d *DenseAdaGrad) Step(params, grad []float32) {
	d.StepAt(0, params, grad)
}

// StepAt implements ChunkedDense: the accumulator slice is addressed at the
// chunk's offset into the flattened parameter vector, so chunked sweeps and
// a whole-vector Step touch identical accumulator cells. It panics, before
// writing anything, unless params and grad have one length and the chunk
// lies inside the accumulator.
func (d *DenseAdaGrad) StepAt(offset int, params, grad []float32) {
	if len(params) != len(grad) || offset < 0 || offset+len(grad) > len(d.accum) {
		panic(fmt.Sprintf("optim: DenseAdaGrad.StepAt(%d): params of %d elements, gradient of %d, accumulator of %d",
			offset, len(params), len(grad), len(d.accum)))
	}
	tensor.AdaGradStep(d.accum[offset:offset+len(grad)], params, grad, d.LR, d.Eps)
}

// Name implements Dense.
func (d *DenseAdaGrad) Name() string { return "adagrad" }
