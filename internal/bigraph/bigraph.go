// Package bigraph implements the paper's central abstraction: the bipartite
// graph G = (Vx, Vξ, E) between embedding vertices (categorical features)
// and sample vertices (training examples), with an edge wherever a sample
// uses a feature (Section 5.1, Figure 5).
//
// The bigraph is the input to the hybrid partitioner and the source of the
// access-frequency statistics used by clock normalisation. The package also
// builds the embedding co-occurrence graph used in the paper's Figure 3 to
// demonstrate locality.
package bigraph

import (
	"fmt"
	"sort"

	"hetgmp/internal/dataset"
)

// Bigraph is the sample–embedding bipartite graph: the sample side in CSR
// form, the embedding side as a degree vector.
type Bigraph struct {
	NumSamples  int
	NumFeatures int
	NumFields   int

	// Samples→features: sample i uses SampleFeatures(i).
	sampleOff []int64
	sampleAdj []int32

	// Degree[x] is the number of (sample, x) edges, i.e. the access
	// frequency p_x of embedding x.
	Degree []int32
}

// FromDataset builds the bigraph for d. Duplicate features within one sample
// (the same ID in two fields) contribute one edge per occurrence, matching
// the lookup count a real embedding layer would perform.
func FromDataset(d *dataset.Dataset) *Bigraph {
	g := &Bigraph{
		NumSamples:  len(d.Samples),
		NumFeatures: d.NumFeatures,
		NumFields:   d.NumFields,
		Degree:      make([]int32, d.NumFeatures),
	}
	edges := 0
	for i := range d.Samples {
		edges += len(d.Samples[i].Features)
	}
	g.sampleOff = make([]int64, g.NumSamples+1)
	g.sampleAdj = make([]int32, 0, edges)
	for i := range d.Samples {
		g.sampleOff[i] = int64(len(g.sampleAdj))
		for _, f := range d.Samples[i].Features {
			g.sampleAdj = append(g.sampleAdj, f)
			g.Degree[f]++
		}
	}
	g.sampleOff[g.NumSamples] = int64(len(g.sampleAdj))
	return g
}

// SampleFeatures returns the feature IDs used by sample i.
func (g *Bigraph) SampleFeatures(i int) []int32 {
	return g.sampleAdj[g.sampleOff[i]:g.sampleOff[i+1]]
}

// NumEdges returns the total number of (sample, feature) edges.
func (g *Bigraph) NumEdges() int64 { return int64(len(g.sampleAdj)) }

// DegreeStats summarises the embedding-side degree distribution, whose
// power-law skew is the paper's core "Skewness" observation (Section 4).
type DegreeStats struct {
	Max    int32
	Mean   float64
	Median int32
	// TopShare[k] is the fraction of all edges covered by the k% most
	// frequent features, for k in {1, 5, 10}. The paper replicates the top
	// 1% of embeddings as secondaries.
	Top1Share  float64
	Top5Share  float64
	Top10Share float64
}

// DegreeStats computes the distribution summary.
func (g *Bigraph) DegreeStats() DegreeStats {
	n := len(g.Degree)
	if n == 0 {
		return DegreeStats{}
	}
	sorted := make([]int32, n)
	copy(sorted, g.Degree)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] > sorted[j] })
	total := float64(g.NumEdges())
	share := func(pct float64) float64 {
		k := int(float64(n) * pct / 100)
		if k < 1 {
			k = 1
		}
		var s int64
		for _, d := range sorted[:k] {
			s += int64(d)
		}
		if total == 0 {
			return 0
		}
		return float64(s) / total
	}
	return DegreeStats{
		Max:        sorted[0],
		Mean:       total / float64(n),
		Median:     sorted[n/2],
		Top1Share:  share(1),
		Top5Share:  share(5),
		Top10Share: share(10),
	}
}

// CountTable holds count(x, i): the number of times embedding x is used by
// the samples currently assigned to partition i (Eq. 3 of the paper). It is
// maintained incrementally as the partitioner moves sample vertices.
type CountTable struct {
	N      int // partitions
	counts []int32
	g      *Bigraph
}

// NewCountTable builds count(x, i) for the given sample→partition assignment
// (-1 entries mean unassigned).
func NewCountTable(g *Bigraph, n int, sampleOf []int) *CountTable {
	if len(sampleOf) != g.NumSamples {
		panic(fmt.Sprintf("bigraph: assignment length %d, want %d", len(sampleOf), g.NumSamples))
	}
	t := &CountTable{N: n, counts: make([]int32, g.NumFeatures*n), g: g}
	for i, p := range sampleOf {
		if p < 0 {
			continue
		}
		for _, f := range g.SampleFeatures(i) {
			t.counts[int(f)*n+p]++
		}
	}
	return t
}

// Count returns count(x, i).
func (t *CountTable) Count(x int32, i int) int32 { return t.counts[int(x)*t.N+i] }

// Row returns the per-partition counts for feature x. The returned slice
// aliases internal storage and must not be modified by callers.
func (t *CountTable) Row(x int32) []int32 { return t.counts[int(x)*t.N : (int(x)+1)*t.N] }

// MoveSample updates the table for sample s moving from partition from to
// partition to. Either may be -1 to indicate unassigned.
func (t *CountTable) MoveSample(s int, from, to int) {
	if from == to {
		return
	}
	for _, f := range t.g.SampleFeatures(s) {
		row := t.counts[int(f)*t.N : (int(f)+1)*t.N]
		if from >= 0 {
			row[from]--
		}
		if to >= 0 {
			row[to]++
		}
	}
}

// SampleMove is one accepted relocation of a sample vertex, the unit of the
// partitioner's chunked delta application.
type SampleMove struct {
	Sample   int
	From, To int
}

// ApplyMoves applies a batch of accepted sample moves in order. Because
// count(x, i) depends only on the sample→partition map — not on the order
// moves were decided — deferring table maintenance to one batch per delta
// block keeps the hot scoring loops free of count-table writes.
func (t *CountTable) ApplyMoves(moves []SampleMove) {
	for _, m := range moves {
		t.MoveSample(m.Sample, m.From, m.To)
	}
}

// PartitionTotals returns Σ_x count(x, i) per partition: the number of
// (sample, feature) edge endpoints each partition's sample set touches. It
// is the count-table side of the partition-accounting invariant.
func (t *CountTable) PartitionTotals() []int64 {
	tot := make([]int64, t.N)
	for off := 0; off < len(t.counts); off += t.N {
		for i := 0; i < t.N; i++ {
			tot[i] += int64(t.counts[off+i])
		}
	}
	return tot
}

// VerifyRecount rebuilds count(x, i) from scratch for the given
// sample→partition assignment and returns an error describing the first
// cell where the incrementally maintained table disagrees. It is the
// ground-truth check behind the partitioner's delta maintenance.
func (t *CountTable) VerifyRecount(sampleOf []int) error {
	fresh := NewCountTable(t.g, t.N, sampleOf)
	for x := 0; x < t.g.NumFeatures; x++ {
		for i := 0; i < t.N; i++ {
			if got, want := t.counts[x*t.N+i], fresh.counts[x*t.N+i]; got != want {
				return fmt.Errorf("bigraph: count(%d,%d) drifted: maintained %d, recount %d",
					x, i, got, want)
			}
		}
	}
	return nil
}
