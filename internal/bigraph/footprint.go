package bigraph

import "hetgmp/internal/obs/memacct"

// Footprint reports the memory the graph owns (internal/obs/memacct): the
// degrees. Its sample side is the dataset's block, counted by the dataset's
// owner. The graph is immutable, so the tree is safe to compute any time.
func (g *Bigraph) Footprint() memacct.Footprint {
	return memacct.Node("bigraph",
		memacct.Leaf("degrees", int64(len(g.Degree))*4),
	)
}
