package nn

import (
	"fmt"
	"testing"

	"hetgmp/internal/tensor"
	"hetgmp/internal/xrand"
)

func parallelModels() []Network {
	return []Network{
		NewWDL(WDLConfig{Fields: 4, Dim: 5, Hidden: []int{9, 6}, Seed: 3}),
		NewDCN(DCNConfig{Fields: 4, Dim: 5, CrossLayers: 2, Hidden: []int{9}, Seed: 3}),
		NewDeepFM(DeepFMConfig{Fields: 4, Dim: 5, Hidden: []int{9}, Seed: 3}),
	}
}

// newTrainState builds a training state on freshly allocated destinations,
// as the engine does for a worker.
func newTrainState(net Network, rows int) State {
	return net.NewState(rows, tensor.NewMatrix(rows, net.InputDim()), make([]float32, net.ParamCount()))
}

func randBatch(r *xrand.RNG, rows, dim int) (*tensor.Matrix, []float32) {
	input := tensor.NewMatrix(rows, dim)
	for i := range input.Data {
		input.Data[i] = 2*r.Float32() - 1
	}
	dLogit := make([]float32, rows)
	for i := range dLogit {
		dLogit[i] = (2*r.Float32() - 1) * 0.3
	}
	return input, dLogit
}

type passResult struct {
	logits []float32
	dInput []float32
	grads  []float32
}

func runPass(net Network, st State, input *tensor.Matrix, dLogit []float32) passResult {
	rows := len(dLogit)
	logits := append([]float32(nil), net.Forward(st, input, rows)...)
	dIn := net.Backward(st, dLogit)
	grads := make([]float32, net.ParamCount())
	net.Grads(st, grads)
	return passResult{
		logits: logits,
		dInput: append([]float32(nil), dIn.Data[:rows*net.InputDim()]...),
		grads:  grads,
	}
}

func samePass(t *testing.T, label string, got, want passResult) {
	t.Helper()
	for i := range want.logits {
		if got.logits[i] != want.logits[i] {
			t.Fatalf("%s: logit %d: %v vs %v", label, i, got.logits[i], want.logits[i])
		}
	}
	for i := range want.dInput {
		if got.dInput[i] != want.dInput[i] {
			t.Fatalf("%s: dInput %d: %v vs %v", label, i, got.dInput[i], want.dInput[i])
		}
	}
	for i := range want.grads {
		if got.grads[i] != want.grads[i] {
			t.Fatalf("%s: grad %d: %v vs %v", label, i, got.grads[i], want.grads[i])
		}
	}
}

// TestParallelSerialPoolBitIdentical pins the wrapper's core contract:
// logits, input gradients and reduced weight gradients are a pure function
// of the grid — identical bits with no pool (the serial walk) and with
// pools of any size, at batch sizes exercising one range, an exact
// multiple, and ragged tails.
func TestParallelSerialPoolBitIdentical(t *testing.T) {
	rr := DefaultRangeRows
	for _, net := range parallelModels() {
		for _, rows := range []int{1, rr - 1, rr, rr + 1, 3*rr - 1} {
			r := xrand.New(uint64(rows) * 31)
			input, dLogit := randBatch(r, rows, net.InputDim())

			serial := NewParallel(net)
			ref := runPass(serial, newTrainState(serial, rows), input, dLogit)

			for _, workers := range []int{1, 3, 8} {
				par := NewParallel(net)
				pool := NewPool(workers)
				par.SetPool(pool)
				got := runPass(par, newTrainState(par, rows), input, dLogit)
				pool.Close()
				samePass(t, fmt.Sprintf("%s rows=%d workers=%d", net.Name(), rows, workers), got, ref)
			}
		}
	}
}

// TestParallelRowQuantitiesMatchRaw pins the stronger per-row property the
// determinism argument rests on: forward logits and dInput are
// row-independent in all three models, so the sharded path reproduces the
// *unwrapped* network bit for bit. (Weight gradients are excluded — their
// cross-row sums legitimately reassociate on the grid.)
func TestParallelRowQuantitiesMatchRaw(t *testing.T) {
	rows := 2*DefaultRangeRows + 7
	for _, net := range parallelModels() {
		r := xrand.New(41)
		input, dLogit := randBatch(r, rows, net.InputDim())

		rawSt := newTrainState(net, rows)
		rawLogits := append([]float32(nil), net.Forward(rawSt, input, rows)...)
		rawDIn := append([]float32(nil), net.Backward(rawSt, dLogit).Data[:rows*net.InputDim()]...)

		par := NewParallel(net)
		pool := NewPool(4)
		defer pool.Close()
		par.SetPool(pool)
		st := newTrainState(par, rows)
		logits := par.Forward(st, input, rows)
		for i := range rawLogits {
			if logits[i] != rawLogits[i] {
				t.Fatalf("%s: logit %d differs from raw net: %v vs %v", net.Name(), i, logits[i], rawLogits[i])
			}
		}
		dIn := par.Backward(st, dLogit)
		for i := range rawDIn {
			if dIn.Data[i] != rawDIn[i] {
				t.Fatalf("%s: dInput %d differs from raw net: %v vs %v", net.Name(), i, dIn.Data[i], rawDIn[i])
			}
		}
	}
}

// TestParallelRepeatedRunsStable re-runs the same batch through the same
// pooled state: scheduling varies run to run, the bits must not.
func TestParallelRepeatedRunsStable(t *testing.T) {
	net := parallelModels()[1] // DCN has the most cross-row accumulation
	rows := 3 * DefaultRangeRows
	r := xrand.New(5)
	input, dLogit := randBatch(r, rows, net.InputDim())
	par := NewParallel(net)
	pool := NewPool(8)
	defer pool.Close()
	par.SetPool(pool)
	st := newTrainState(par, rows)
	first := runPass(par, st, input, dLogit)
	for trial := 0; trial < 5; trial++ {
		got := runPass(par, st, input, dLogit)
		samePass(t, fmt.Sprintf("trial %d", trial), got, first)
	}
}

// TestParallelDelegates checks the pass-through surface and idempotent
// wrapping.
func TestParallelDelegates(t *testing.T) {
	net := NewWDL(WDLConfig{Fields: 2, Dim: 3, Hidden: []int{4}, Seed: 9})
	par := NewParallel(net)
	if NewParallel(par) != par {
		t.Fatal("double wrap not collapsed")
	}
	if par.Name() != net.Name() || par.InputDim() != net.InputDim() ||
		par.ParamCount() != net.ParamCount() || par.FLOPsPerSample() != net.FLOPsPerSample() {
		t.Fatal("delegated accessors diverge")
	}
	if par.Unwrap() != Network(net) {
		t.Fatal("Unwrap lost the wrapped net")
	}
	a := make([]float32, net.ParamCount())
	b := make([]float32, net.ParamCount())
	par.FlattenParams(a)
	net.FlattenParams(b)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("FlattenParams diverges")
		}
	}
}

// TestPoolRunPanicPropagates pins the fan-out error contract: a panic on a
// pool goroutine resurfaces on the caller, and the pool stays usable.
func TestPoolRunPanicPropagates(t *testing.T) {
	pool := NewPool(2)
	defer pool.Close()
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Fatalf("recovered %v, want boom", r)
			}
		}()
		pool.Run(8, func(i int) {
			if i == 5 {
				panic("boom")
			}
		})
	}()
	// Pool must still work after a drained panic.
	var hits [4]int
	pool.Run(4, func(i int) { hits[i]++ })
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d ran %d times", i, h)
		}
	}
}

// BenchmarkModelForwardBackwardParallel measures the batch-parallel dense
// pass (forward + backward + reduced Grads) against pool sizes; compare with
// the pool-less case for the single-core baseline. allocs/op counts the
// per-call matrix views and closures; no buffer is allocated.
func BenchmarkModelForwardBackwardParallel(b *testing.B) {
	for _, workers := range []int{0, 1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			m := NewWDL(WDLConfig{Fields: 26, Dim: 32, Seed: 1})
			par := NewParallel(m)
			var pool *Pool
			if workers > 0 {
				pool = NewPool(workers)
				defer pool.Close()
			}
			par.SetPool(pool)
			const rows = 256
			// The engine's shape: Grads reduces into the vector the state
			// was built with.
			grads := make([]float32, par.ParamCount())
			st := par.NewState(rows, tensor.NewMatrix(rows, par.InputDim()), grads)
			r := xrand.New(1)
			input, _ := randBatch(r, rows, par.InputDim())
			labels := make([]float32, rows)
			dLogit := make([]float32, rows)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				logits := par.Forward(st, input, rows)
				BCEWithLogits(logits, labels, dLogit)
				par.Backward(st, dLogit)
				par.Grads(st, grads)
			}
		})
	}
}
