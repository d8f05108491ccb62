package main

import (
	"testing"

	"hetgmp/internal/optim"
)

// plainDense is a dense rule without optim.ChunkedDense.
type plainDense struct{}

func (plainDense) Step(params, grad []float32) {}
func (plainDense) Name() string                { return "plain" }

func TestWrappersForwardOptionalCapabilities(t *testing.T) {
	h := &hooks{tr: newTracer("t")}
	if _, ok := wrapDense(optim.NewDenseAdaGrad(0.01, 4), h).(optim.ChunkedDense); !ok {
		t.Error("wrapped DenseAdaGrad lost optim.ChunkedDense: the traced run would take the serial dense step")
	}
	if _, ok := wrapDense(plainDense{}, h).(optim.ChunkedDense); ok {
		t.Error("wrapped plain rule gained optim.ChunkedDense")
	}
	if !optim.IsLinear(wrapSparse(optim.NewSGD(0.05), h)) {
		t.Error("wrapped SGD lost optim.Linearizable")
	}
	if _, ok := wrapSparse(optim.NewAdaGrad(0.05, 4, 2), h).(optim.Linearizable); ok {
		t.Error("wrapped AdaGrad gained optim.Linearizable")
	}

	// The wrappers apply the rule they wrap and record what they saw.
	params, grad := []float32{1, 1, 1, 1}, []float32{1, 1, 1, 1}
	want := append([]float32(nil), params...)
	optim.NewDenseAdaGrad(0.01, 4).Step(want, grad)
	d := wrapDense(optim.NewDenseAdaGrad(0.01, 4), h).(optim.ChunkedDense)
	d.StepAt(0, params[:2], grad[:2])
	d.StepAt(2, params[2:], grad[2:])
	for i := range want {
		if params[i] != want[i] {
			t.Fatalf("chunked step through the wrapper: %v, want %v", params, want)
		}
	}
	row := []float32{1, 1}
	wrapSparse(optim.NewSGD(0.5), h).Apply(3, row, []float32{1, 1})
	if row[0] != 0.5 || h.sparseRows() != 1 {
		t.Errorf("sparse wrapper: row %v, %d rows counted", row, h.sparseRows())
	}
	if n := len(index(h.tr.snapshot())[0]["optim.dense_step"]); n != 2 {
		t.Errorf("%d optim.dense_step spans, want 2", n)
	}
}

// TestWrappedRunIsBitIdentical trains the same job with and without the
// nn, optim and comm wrappers: the traced run must measure the code path the
// timed runs take, so history and checkpoint may not differ by a bit.
func TestWrappedRunIsBitIdentical(t *testing.T) {
	for _, name := range []string{"dense-bound", "tcp-2rank"} {
		sp := specByName(name).quick()
		tr := newTracer(sp.name)
		tmp := t.TempDir()
		j, err := setup(sp, 7, tr, tmp)
		if err != nil {
			t.Fatal(err)
		}
		defer j.close()
		plain, _, err := j.run()
		if err != nil {
			t.Fatal(err)
		}
		hash, err := sameCheckpoints(j, "")
		if err != nil {
			t.Fatal(err)
		}
		if err := j.build(variant{traced: true}, noParent); err != nil {
			t.Fatal(err)
		}
		wrapped, _, err := j.run()
		if err != nil {
			t.Fatal(err)
		}
		if err := same(fingerprintOf(plain[0]), wrapped); err != nil {
			t.Errorf("%s: wrapped run differs: %v", name, err)
		}
		if _, err := sameCheckpoints(j, hash); err != nil {
			t.Errorf("%s: wrapped run's checkpoint differs: %v", name, err)
		}
		spans := index(tr.snapshot())[j.ranks[0].hooks.run]
		if len(spans["nn.forward"]) == 0 || len(spans["nn.apply_dense"]) != plain[0].Iterations {
			t.Errorf("%s: %d nn.forward and %d nn.apply_dense spans for %d iterations",
				name, len(spans["nn.forward"]), len(spans["nn.apply_dense"]), plain[0].Iterations)
		}
		if sp.tcp && len(spans["comm.recv"]) == 0 {
			t.Errorf("%s: the transport wrapper recorded no receive", name)
		}
	}
}
