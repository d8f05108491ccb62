package nn

import (
	"reflect"
	"sort"
	"testing"
	"unsafe"

	"hetgmp/internal/tensor"
	"hetgmp/internal/xrand"
)

func linears(net Network) []*Linear {
	return net.(interface{ linears() []*Linear }).linears()
}

// TestTransposedWeightsTrackW pins the Wᵀ cache's one obligation: after every
// writer of W — construction, a dense step, a parameter load — each layer's
// wt is exactly W transposed, so backward never multiplies by stale weights.
func TestTransposedWeightsTrackW(t *testing.T) {
	for _, net := range parallelModels() {
		check := func(when string) {
			t.Helper()
			for li, l := range linears(net) {
				if l.wt.Rows != l.Out || l.wt.Cols != l.In {
					t.Fatalf("%s %s: layer %d wt is %dx%d, want %dx%d", net.Name(), when, li, l.wt.Rows, l.wt.Cols, l.Out, l.In)
				}
				for i := 0; i < l.In; i++ {
					for j := 0; j < l.Out; j++ {
						if l.wt.At(j, i) != l.W.At(i, j) {
							t.Fatalf("%s %s: layer %d wt(%d,%d) = %v, W(%d,%d) = %v",
								net.Name(), when, li, j, i, l.wt.At(j, i), i, j, l.W.At(i, j))
						}
					}
				}
			}
		}
		check("new")
		grad := make([]float32, net.ParamCount())
		for i := range grad {
			grad[i] = 0.01 * float32(i%13-6)
		}
		net.ApplyDense(func(p, g []float32) {
			for i := range p {
				p[i] -= g[i]
			}
		}, grad)
		check("after ApplyDense")
		params := make([]float32, net.ParamCount())
		for i := range params {
			params[i] = float32(i)
		}
		net.LoadParams(params)
		check("after LoadParams")
	}
}

// TestFootprintAccountsTransposedWeights pins that the model's memacct tree
// carries the Wᵀ copies as their own leaf — In·Out·4 bytes per Linear layer
// — and still satisfies the Σ-children invariant.
func TestFootprintAccountsTransposedWeights(t *testing.T) {
	for _, net := range parallelModels() {
		var want int64
		for _, l := range linears(net) {
			want += int64(l.In*l.Out) * 4
		}
		p := NewParallel(net)
		fp := p.Footprint([]State{newTrainState(p, 70)})
		if err := fp.Validate(); err != nil {
			t.Fatalf("%s: footprint invalid: %v", net.Name(), err)
		}
		leaf, ok := fp.Find("model.weights_transposed")
		if !ok || leaf.Bytes != want {
			t.Errorf("%s: model.weights_transposed = %d bytes (found %v), want %d", net.Name(), leaf.Bytes, ok, want)
		}
		if w, _ := fp.Find("model.weights"); w.Bytes != int64(net.ParamCount())*4 {
			t.Errorf("%s: model.weights = %d bytes, want %d", net.Name(), w.Bytes, net.ParamCount()*4)
		}
	}
}

// float32Arrays walks v by reflection and appends the address range
// [start, end) of every float32 slice it reaches, by its capacity: a view's
// range runs to the end of the array it was cut from.
func float32Arrays(v reflect.Value, seen map[uintptr]bool, out [][2]uintptr) [][2]uintptr {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			return out
		}
		if v.Kind() == reflect.Pointer {
			if seen[v.Pointer()] {
				return out
			}
			seen[v.Pointer()] = true
		}
		return float32Arrays(v.Elem(), seen, out)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			out = float32Arrays(v.Field(i), seen, out)
		}
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Float32 {
			if v.Cap() > 0 {
				out = append(out, [2]uintptr{v.Pointer(), v.Pointer() + uintptr(v.Cap())*4})
			}
			return out
		}
		for i := 0; i < v.Len(); i++ {
			out = float32Arrays(v.Index(i), seen, out)
		}
	}
	return out
}

// TestStateBytesCountsEachArrayOnce walks Parallel states by reflection,
// as TestFootprintCountsEveryWorkerBuffer walks the engine's worker: the
// distinct float32 arrays the state reaches — every view merged into the
// array it was cut from, less the caller's input, dInput and grads — must
// hold exactly StateBytes. A buffer missing from stateBytes, or an aliased
// view counted as if the state owned it, fails here.
func TestStateBytesCountsEachArrayOnce(t *testing.T) {
	for _, net := range append(parallelModels(), inPlaceModels()...) {
		for _, rows := range []int{1, 64, 150} {
			p := NewParallel(net)
			input, dLogit := randBatch(xrand.New(3), rows, p.InputDim())
			dInput := tensor.NewMatrix(rows, p.InputDim())
			grads := make([]float32, p.ParamCount())
			for _, st := range []State{p.NewState(rows, dInput, grads), p.NewState(rows, nil, nil)} {
				p.Forward(st, input, rows)
				if st.(*parallelState).flat != nil {
					p.Backward(st, dLogit)
					p.Grads(st, grads)
				}
				callers := [][2]uintptr{}
				for _, a := range [][]float32{input.Data, dInput.Data, grads} {
					start := uintptr(unsafe.Pointer(&a[0]))
					callers = append(callers, [2]uintptr{start, start + uintptr(cap(a))*4})
				}
				var owned [][2]uintptr
			next:
				for _, r := range float32Arrays(reflect.ValueOf(st), map[uintptr]bool{}, nil) {
					for _, c := range callers {
						if r[0] >= c[0] && r[1] <= c[1] {
							continue next
						}
					}
					owned = append(owned, r)
				}
				// By start, the longest first, so an array precedes its views.
				sort.Slice(owned, func(i, j int) bool {
					if owned[i][0] != owned[j][0] {
						return owned[i][0] < owned[j][0]
					}
					return owned[i][1] > owned[j][1]
				})
				var bytes int64
				var end uintptr
				for _, r := range owned {
					if r[0] < end && r[1] > end {
						t.Fatalf("%s rows=%d: arrays overlap without nesting", net.Name(), rows)
					}
					if r[0] >= end {
						bytes += int64(r[1] - r[0])
						end = r[1]
					}
				}
				if got := StateBytes(st); got != bytes {
					t.Errorf("%s rows=%d forward-only=%v: StateBytes %d, distinct owned arrays %d",
						net.Name(), rows, st.(*parallelState).flat == nil, got, bytes)
				}
			}
		}
	}
}

// TestParallelStateBudget bounds a worker's dense state at the
// hetgmp-train default model, WDL 832→64→32 at 256 rows: the shards own
// their activations, masks and hidden-layer input gradients, and the
// wrapper the gradient vectors of shards 1–3. The input gradient and
// shard 0's vector are the caller's.
func TestParallelStateBudget(t *testing.T) {
	p := NewParallel(NewWDL(WDLConfig{Fields: 26, Dim: 32, Hidden: []int{64, 32}, Seed: 1}))
	const rows = 256
	st := p.NewState(rows, tensor.NewMatrix(rows, p.InputDim()), make([]float32, p.ParamCount()))
	if got := StateBytes(st); got > 3<<19 {
		t.Fatalf("256-row WDL 832→64→32 state owns %d bytes, budget %d (1.5 MiB)", got, 3<<19)
	}
}
