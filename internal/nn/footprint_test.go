package nn

import "testing"

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
		fp := p.Footprint([]State{p.NewState(70)})
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
