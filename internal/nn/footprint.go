package nn

import (
	"hetgmp/internal/obs/memacct"
	"hetgmp/internal/tensor"
)

// StateBytes reports the allocated byte footprint of a State produced by
// NewState. All built-in model states implement the sizing hook; unknown
// State implementations report 0. Saved input *views* (aliases of buffers
// owned elsewhere) are never counted — only allocations the state owns.
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
	// st.in is a saved view of the previous layer's output, not owned here.
	return matBytes(st.out) + matBytes(st.dIn) + matBytes(st.dW) +
		int64(len(st.dB))*4 + int64(len(st.mask))*4
}

func (st *wdlState) stateBytes() int64 {
	total := st.wide.stateBytes() + matBytes(st.dLogitMat) + matBytes(st.dInput) +
		int64(len(st.logits))*4
	for _, l := range st.deep {
		total += l.stateBytes()
	}
	return total
}

func (st *dcnState) stateBytes() int64 {
	total := matBytes(st.dCross) + matBytes(st.dX0) + matBytes(st.comb) + matBytes(st.dComb) +
		matBytes(st.dLogitMat) + matBytes(st.dInput) + int64(len(st.logits))*4
	for _, m := range st.xs {
		total += matBytes(m)
	}
	for i := range st.ss {
		total += int64(len(st.ss[i]))*4 + int64(len(st.dW[i]))*4 + int64(len(st.dB[i]))*4
	}
	for _, l := range st.deep {
		total += l.stateBytes()
	}
	total += st.final.stateBytes()
	return total
}

func (st *deepFMState) stateBytes() int64 {
	// st.input is a saved view of the engine's gather buffer, not owned here.
	total := st.wide.stateBytes() + matBytes(st.fieldSum) + matBytes(st.dLogitMat) +
		matBytes(st.dInput) + int64(len(st.logits))*4
	for _, l := range st.deep {
		total += l.stateBytes()
	}
	return total
}

func (st *parallelState) stateBytes() int64 {
	total := int64(len(st.logits))*4 + matBytes(st.dInput)
	for _, sh := range st.shards {
		total += StateBytes(sh)
	}
	for _, f := range st.flat {
		total += int64(len(f)) * 4
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
