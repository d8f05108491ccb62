package nn

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"hetgmp/internal/tensor"
	"hetgmp/internal/xrand"
)

// inPlaceModels are the three models at a width where the wide GEMM panels,
// the ReLU masks and the K=1 heads all run.
func inPlaceModels() []Network {
	return []Network{
		NewWDL(WDLConfig{Fields: 13, Dim: 8, Hidden: []int{64, 32}, Seed: 9}),
		NewDCN(DCNConfig{Fields: 13, Dim: 8, CrossLayers: 2, Hidden: []int{64, 32}, Seed: 9}),
		NewDeepFM(DeepFMConfig{Fields: 13, Dim: 8, Hidden: []int{64, 32}, Seed: 9}),
	}
}

// digestPasses runs three passes through st — two of rows rows on different
// data, then one of about half as many — and hashes every bit of the logits,
// the input gradients and the weight gradients Grads leaves in grads. A
// buffer that keeps the previous pass's values, or a gradient written at
// the wrong offset, changes the digest.
func digestPasses(net Network, st State, rows int, grads []float32) uint64 {
	h := fnv.New64a()
	var b [4]byte
	put := func(xs []float32) {
		for _, x := range xs {
			binary.LittleEndian.PutUint32(b[:], math.Float32bits(x))
			h.Write(b[:])
		}
	}
	for pass, n := range []int{rows, rows, (rows + 1) / 2} {
		r := xrand.New(uint64(1000*rows + pass))
		input, dLogit := randBatch(r, n, net.InputDim())
		put(net.Forward(st, input, n))
		put(net.Backward(st, dLogit).Data[:n*net.InputDim()])
		net.Grads(st, grads)
		put(grads)
	}
	return h.Sum64()
}

// TestInPlacePassesPinned pins the in-place dense path to the bits of the
// copying path it replaced: the digests were recorded by the same passes on
// the models as they were before, when every layer owned its dIn and dW,
// Grads flattened copies of them, the wide head ran a K=1 GEMM plus Add and
// Parallel copied each shard's dInput. Raw states cover shard sizes 1–256;
// the Parallel digests hold with no pool and with one.
func TestInPlacePassesPinned(t *testing.T) {
	pins := []struct {
		model    string
		rows     int
		raw, par uint64
	}{
		{"wdl", 1, 0xb93a41c0af2a77b, 0xb93a41c0af2a77b},
		{"wdl", 63, 0xc2c02b28ffe7b90d, 0xc2c02b28ffe7b90d},
		{"wdl", 64, 0x20b52cc52d1ec22f, 0x20b52cc52d1ec22f},
		{"wdl", 65, 0x67bbc11f26e5c23f, 0x67bbc11f26e5c23f},
		{"wdl", 255, 0xdd1e7dc195649e17, 0x2e2f2715548e7756},
		{"wdl", 256, 0xb46e283b908bc7e, 0xe1db52db4f2a1245},
		{"dcn", 1, 0xf978160c5d14e996, 0xf978160c5d14e996},
		{"dcn", 63, 0x14e01905e9dd4125, 0x14e01905e9dd4125},
		{"dcn", 64, 0x5388346fc87a6219, 0x5388346fc87a6219},
		{"dcn", 65, 0x4e4687e6d3b5468, 0x4e4687e6d3b5468},
		{"dcn", 255, 0xea32ab1fb38863d, 0x6bb842c42a5f0ba5},
		{"dcn", 256, 0x73e6f9afffcd008, 0x50569d25bdfff93d},
		{"deepfm", 1, 0xa21f7c932a0749b4, 0xa21f7c932a0749b4},
		{"deepfm", 63, 0x4bda84a8d0129dc7, 0x4bda84a8d0129dc7},
		{"deepfm", 64, 0x7fcc59f9cf2f7127, 0x7fcc59f9cf2f7127},
		{"deepfm", 65, 0xf0eb0878b8ebd6db, 0xf0eb0878b8ebd6db},
		{"deepfm", 255, 0x2747d9c03e658165, 0xc03b16facc933aac},
		{"deepfm", 256, 0xa5f4a9385b153c0d, 0x2e7a4d16bc9ad0ad},
	}
	pool := NewPool(3)
	defer pool.Close()
	nets := map[string]Network{}
	for _, net := range inPlaceModels() {
		nets[net.Name()] = net
	}
	for _, pin := range pins {
		net := nets[pin.model]
		label := fmt.Sprintf("%s rows=%d", pin.model, pin.rows)
		grads := make([]float32, net.ParamCount())
		st := net.NewState(pin.rows, tensor.NewMatrix(pin.rows, net.InputDim()), grads)
		if got := digestPasses(net, st, pin.rows, grads); got != pin.raw {
			t.Errorf("%s raw: digest %#x, want %#x", label, got, pin.raw)
		}
		for _, p := range []*Pool{nil, pool} {
			par := NewParallel(net)
			par.SetPool(p)
			grads := make([]float32, net.ParamCount())
			st := par.NewState(pin.rows, tensor.NewMatrix(pin.rows, net.InputDim()), grads)
			if got := digestPasses(par, st, pin.rows, grads); got != pin.par {
				t.Errorf("%s parallel (pool %v): digest %#x, want %#x", label, p != nil, got, pin.par)
			}
		}
	}
}

// TestHeadGradAxpyMatchesGEMMPlusAdd holds addHeadGrad to the argument of
// DESIGN §14 on adversarial values: a one-output head's input gradient
// added with Axpy into a GEMM-written dInput has the bits of the K=1 GEMM
// plus Add it replaced — with ±0 products (zero dLogit, zero and negative
// weights), subnormals, sums that cancel to +0, and products that overflow.
func TestHeadGradAxpyMatchesGEMMPlusAdd(t *testing.T) {
	const in, hidden = 40, 3
	tiny := math.Float32frombits(1) // smallest subnormal
	weights := []float32{0, float32(math.Copysign(0, -1)), 1, -1, tiny, -tiny, 3e38, -3e38,
		1e-20, -1e-20, 0.5, -2, 1e19, -1e19, 6e-39, -6e-39}
	dLogits := []float32{0, float32(math.Copysign(0, -1)), 1, -1, tiny, -tiny, 1e-30, -1e30, 2.5, 3e38}
	for _, rows := range []int{1, 2, 3, 7, len(dLogits)} {
		head := &Linear{In: in, Out: 1, W: tensor.NewMatrix(in, 1), B: make([]float32, 1), wt: tensor.NewMatrix(1, in)}
		for i := range head.W.Data {
			head.W.Data[i] = weights[i%len(weights)]
		}
		tensor.Transpose(head.wt, head.W)
		dLogit := make([]float32, rows)
		for r := range dLogit {
			dLogit[r] = dLogits[(r*3)%len(dLogits)]
		}
		// dInput as the first deep layer writes it: dOut·Wᵀ, where dOut
		// rows include all-zero ones, values that cancel, and subnormals.
		dOut := tensor.NewMatrix(rows, hidden)
		wt := tensor.NewMatrix(hidden, in)
		for i := range dOut.Data {
			dOut.Data[i] = []float32{0, 1, -1, tiny, float32(math.Copysign(0, -1))}[i%5]
		}
		for i := range wt.Data {
			wt.Data[i] = weights[(i*7)%len(weights)] / 4
		}
		gemmOut := tensor.NewMatrix(rows, in)
		tensor.MatMul(gemmOut, dOut, wt)
		for i, v := range gemmOut.Data {
			if v == 0 && math.Signbit(float64(v)) {
				t.Fatalf("rows=%d: the GEMM wrote −0 at %d; the argument's premise fails", rows, i)
			}
		}

		want := append([]float32(nil), gemmOut.Data...)
		k1 := tensor.NewMatrix(rows, in)
		tensor.MatMul(k1, &tensor.Matrix{Rows: rows, Cols: 1, Data: dLogit}, head.wt)
		tensor.Add(k1.Data, want)

		got := &tensor.Matrix{Rows: rows, Cols: in, Data: append([]float32(nil), gemmOut.Data...)}
		addHeadGrad(head, dLogit, got)
		for i := range want {
			if math.Float32bits(got.Data[i]) != math.Float32bits(want[i]) {
				t.Fatalf("rows=%d elem %d: Axpy gives %v (%#x), K=1 GEMM plus Add %v (%#x)",
					rows, i, got.Data[i], math.Float32bits(got.Data[i]), want[i], math.Float32bits(want[i]))
			}
		}
	}
}

// TestForwardOnlyStateMatchesTraining pins the eval state: a state built
// with no destinations gives the logits of a training state, bit for bit,
// owns fewer bytes, and refuses Backward and Grads with a message.
func TestForwardOnlyStateMatchesTraining(t *testing.T) {
	for _, net := range inPlaceModels() {
		for _, n := range []Network{net, NewParallel(net)} {
			for _, rows := range []int{1, 63, 64, 65, 255, 256} {
				label := fmt.Sprintf("%T %s rows=%d", n, n.Name(), rows)
				input, _ := randBatch(xrand.New(uint64(rows)), rows, n.InputDim())
				train := newTrainState(n, rows)
				fwd := n.NewState(rows, nil, nil)
				want := n.Forward(train, input, rows)
				got := n.Forward(fwd, input, rows)
				for i := range want {
					if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
						t.Fatalf("%s: logit %d is %v forward-only, %v training", label, i, got[i], want[i])
					}
				}
				if StateBytes(fwd) >= StateBytes(train) {
					t.Errorf("%s: forward-only state owns %d bytes, training state %d", label, StateBytes(fwd), StateBytes(train))
				}
				mustPanic(t, label+" Backward", "forward-only", func() { n.Backward(fwd, make([]float32, rows)) })
				mustPanic(t, label+" Grads", "forward-only", func() { n.Grads(fwd, make([]float32, n.ParamCount())) })
			}
		}
	}
}

// TestNewStateRejectsHalfDestinations pins that a state is either fully
// training or forward-only.
func TestNewStateRejectsHalfDestinations(t *testing.T) {
	for _, net := range inPlaceModels() {
		for _, n := range []Network{net, NewParallel(net)} {
			d, p := n.InputDim(), n.ParamCount()
			mustPanic(t, n.Name()+" no grads", "or neither", func() { n.NewState(4, tensor.NewMatrix(4, d), nil) })
			mustPanic(t, n.Name()+" no dInput", "or neither", func() { n.NewState(4, nil, make([]float32, p)) })
			mustPanic(t, n.Name()+" short dInput", "or neither", func() {
				n.NewState(4, tensor.NewMatrix(3, d), make([]float32, p))
			})
			mustPanic(t, n.Name()+" short grads", "or neither", func() {
				n.NewState(4, tensor.NewMatrix(4, d), make([]float32, p-1))
			})
		}
	}
}

// TestGradsIntoForeignDstCopies pins Grads' two cases: into the vector the
// state was built with it changes nothing, and into any other slice it
// writes the same values without touching the state's vector.
func TestGradsIntoForeignDstCopies(t *testing.T) {
	for _, net := range inPlaceModels() {
		for _, n := range []Network{net, NewParallel(net)} {
			const rows = 150
			label := fmt.Sprintf("%T %s", n, n.Name())
			own := make([]float32, n.ParamCount())
			st := n.NewState(rows, tensor.NewMatrix(rows, n.InputDim()), own)
			input, dLogit := randBatch(xrand.New(5), rows, n.InputDim())
			n.Forward(st, input, rows)
			n.Backward(st, dLogit)
			n.Grads(st, own)
			want := append([]float32(nil), own...)
			n.Grads(st, own)
			foreign := make([]float32, n.ParamCount())
			n.Grads(st, foreign)
			for i := range want {
				if math.Float32bits(own[i]) != math.Float32bits(want[i]) {
					t.Fatalf("%s: a second Grads into its own vector changed element %d", label, i)
				}
				if math.Float32bits(foreign[i]) != math.Float32bits(want[i]) {
					t.Fatalf("%s: Grads into a foreign dst gives %v at %d, want %v", label, foreign[i], i, want[i])
				}
			}
		}
	}
}

func mustPanic(t *testing.T, label, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("%s: no panic", label)
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, want) {
			t.Fatalf("%s: panic %q does not say %q", label, msg, want)
		}
	}()
	f()
}
