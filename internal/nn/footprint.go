package nn

import (
	"hetgmp/internal/obs/memacct"
	"hetgmp/internal/tensor"
)

// StateBytes reports the allocated byte footprint of a State produced by
// NewState: each backing array the state owns, counted once. All built-in
// model states implement the sizing hook; unknown State implementations
// report 0. Views of buffers owned elsewhere — saved inputs, the dInput and
// grads NewState was given, a Parallel shard's rows of dInput and its
// gradient vector — are never counted.
func StateBytes(st State) int64 {
	if s, ok := st.(interface{ stateBytes() int64 }); ok {
		return s.stateBytes()
	}
	return 0
}

func matBytes(m *tensor.Matrix) int64 {
	if m == nil {
		return 0
	}
	return int64(len(m.Data)) * 4
}

func (st *linearState) stateBytes() int64 {
	// st.in is a saved view of the previous layer's output; dW and dB are
	// views into the model state's gradient vector.
	return matBytes(st.out) + int64(len(st.mask))*4
}

func (t *towerState) stateBytes() int64 {
	var total int64
	for _, l := range t.layers {
		total += l.stateBytes()
	}
	if len(t.dIns) > 0 {
		// dIns[0] is the model's dInput.
		for _, m := range t.dIns[1:] {
			total += matBytes(m)
		}
	}
	return total
}

func (st *wdlState) stateBytes() int64 {
	return st.wide.stateBytes() + st.deep.stateBytes() + int64(len(st.logits))*4
}

func (st *dcnState) stateBytes() int64 {
	// xs[0] is a view of Forward's input; dW and dB are views into grads.
	total := matBytes(st.comb) + matBytes(st.dComb) + matBytes(st.dCross) + matBytes(st.dDeep) +
		matBytes(st.dX0) + int64(len(st.logits))*4
	for _, m := range st.xs[1:] {
		total += matBytes(m)
	}
	for _, s := range st.ss {
		total += int64(len(s)) * 4
	}
	return total + st.deep.stateBytes() + st.final.stateBytes()
}

func (st *deepFMState) stateBytes() int64 {
	// st.input is a saved view of the engine's gather buffer, not owned here.
	return st.wide.stateBytes() + st.deep.stateBytes() + matBytes(st.fieldSum) +
		int64(len(st.logits))*4
}

func (st *parallelState) stateBytes() int64 {
	total := int64(len(st.logits)) * 4
	for _, sh := range st.shards {
		total += StateBytes(sh)
	}
	if len(st.flat) > 0 {
		// flat[0] is NewState's grads.
		for _, f := range st.flat[1:] {
			total += int64(len(f)) * 4
		}
	}
	return total
}

func (m *WDL) linears() []*Linear { return append([]*Linear{m.wide}, m.deep...) }

func (m *DCN) linears() []*Linear { return append([]*Linear{m.final}, m.deep...) }

func (m *DeepFM) linears() []*Linear { return append([]*Linear{m.wide}, m.deep...) }

// Footprint reports the wrapped network's dense weights plus the given
// activation states (one per engine worker) as a memacct tree. The weights
// leaf is ParamCount × 4 bytes — the flattened parameter vector every
// AllReduce round moves; weights_transposed is the Wᵀ copy each Linear layer
// keeps for its backward pass (0 for a network that lists no layers);
// activation shards are the batch-parallel scratch NewState allocated.
func (p *Parallel) Footprint(states []State) memacct.Footprint {
	var act, wt int64
	for _, st := range states {
		act += StateBytes(st)
	}
	if n, ok := p.net.(interface{ linears() []*Linear }); ok {
		for _, l := range n.linears() {
			wt += matBytes(l.wt)
		}
	}
	return memacct.Node("model",
		memacct.Leaf("weights", int64(p.ParamCount())*4),
		memacct.Leaf("weights_transposed", wt),
		memacct.Leaf("activations", act),
	)
}
