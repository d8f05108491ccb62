package bigraph

import "hetgmp/internal/obs/memacct"

// Footprint reports the graph's measured memory layout (see
// internal/obs/memacct): the sample-side CSR plus the degree vector. The
// graph is immutable after FromDataset, so the tree is safe to compute at
// any time.
func (g *Bigraph) Footprint() memacct.Footprint {
	return memacct.Node("bigraph",
		memacct.Node("sample_csr",
			memacct.Leaf("offsets", int64(len(g.sampleOff))*8),
			memacct.Leaf("adjacency", int64(len(g.sampleAdj))*4),
		),
		memacct.Leaf("degrees", int64(len(g.Degree))*4),
	)
}
