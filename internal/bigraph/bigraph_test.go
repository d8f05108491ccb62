package bigraph

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"hetgmp/internal/dataset"
)

// tinyDataset builds a hand-written dataset with known structure:
// 4 samples, 2 fields, 5 features.
func tinyDataset() *dataset.Dataset {
	mk := func(a, b int32) dataset.Sample {
		return dataset.Sample{Features: []int32{a, b}, Label: 1}
	}
	return (&dataset.Dataset{
		Name:        "tiny",
		NumFields:   2,
		NumFeatures: 5,
		FieldOffset: []int32{0, 2, 5},
		Samples: []dataset.Sample{
			mk(0, 2), // sample 0
			mk(0, 3), // sample 1
			mk(1, 2), // sample 2
			mk(0, 4), // sample 3
		},
	}).Pack()
}

func TestFromDatasetStructure(t *testing.T) {
	g := FromDataset(tinyDataset())
	if g.NumSamples != 4 || g.NumFeatures != 5 || g.NumEdges() != 8 {
		t.Fatalf("structure wrong: %d samples, %d features, %d edges",
			g.NumSamples, g.NumFeatures, g.NumEdges())
	}
	wantDeg := []int32{3, 1, 2, 1, 1}
	for x, want := range wantDeg {
		if g.Degree[x] != want {
			t.Errorf("degree(%d) = %d, want %d", x, g.Degree[x], want)
		}
	}
	for s, want := range [][]int32{{0, 2}, {0, 3}, {1, 2}, {0, 4}} {
		if got := g.SampleFeatures(s); !slices.Equal(got, want) {
			t.Errorf("SampleFeatures(%d) = %v, want %v", s, got, want)
		}
	}
	checkDegrees(t, g)
}

// checkDegrees holds Degree to the sample side: it sums to the edge count,
// and a per-feature recount from SampleFeatures equals it.
func checkDegrees(t *testing.T, g *Bigraph) {
	t.Helper()
	if len(g.Degree) != g.NumFeatures {
		t.Fatalf("%d degrees for %d features", len(g.Degree), g.NumFeatures)
	}
	var sum int64
	for _, d := range g.Degree {
		sum += int64(d)
	}
	if sum != g.NumEdges() {
		t.Fatalf("degrees sum to %d, %d edges", sum, g.NumEdges())
	}
	recount := make([]int32, g.NumFeatures)
	for s := 0; s < g.NumSamples; s++ {
		for _, x := range g.SampleFeatures(s) {
			recount[x]++
		}
	}
	for x, want := range recount {
		if g.Degree[x] != want {
			t.Fatalf("degree(%d) = %d, recount from samples %d", x, g.Degree[x], want)
		}
	}
}

func TestAdjacencyInverse(t *testing.T) {
	ds, err := dataset.New(dataset.Avazu, 1e-4, 9)
	if err != nil {
		t.Fatal(err)
	}
	g := FromDataset(ds)
	// The sample side is the dataset's rows, in order.
	var edges int64
	for s := range ds.Samples {
		got, want := g.SampleFeatures(s), ds.Samples[s].Features
		if !slices.Equal(got, want) {
			t.Fatalf("sample %d: features %v, dataset has %v", s, got, want)
		}
		edges += int64(len(want))
	}
	if edges != g.NumEdges() {
		t.Fatalf("dataset has %d edges, bigraph %d", edges, g.NumEdges())
	}
	checkDegrees(t, g)
}

// TestFromDatasetViewsSamples pins the one-copy layout: the graph's sample
// side is the dataset's feature block itself, FromDataset allocates only the
// degree vector, and a dataset whose samples are not views of its block is
// refused by name.
func TestFromDatasetViewsSamples(t *testing.T) {
	ds, err := dataset.New(dataset.Avazu, 1e-4, 9)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g := FromDataset(ds)
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(4*ds.NumFeatures+1024); got > limit {
		t.Errorf("FromDataset allocated %d bytes, want at most %d (the degree vector)", got, limit)
	}
	if !g.Views(ds) || &g.adj[0] != &ds.Feats[0] || len(g.adj) != len(ds.Feats) {
		t.Fatal("adjacency does not alias the dataset's feature block")
	}
	for s := range ds.Samples {
		if got, want := g.SampleFeatures(s), ds.Samples[s].Features; &got[0] != &want[0] || len(got) != len(want) {
			t.Fatalf("SampleFeatures(%d) is not sample %d's features", s, s)
		}
	}
	if !slices.Equal(g.Degree, ds.FeatureFrequencies()) {
		t.Fatal("Degree differs from the dataset's feature frequencies")
	}
	// An equal copy of the samples is a different block.
	copied := *ds
	copied.Samples = slices.Clone(ds.Samples)
	if g.Views(copied.Pack()) {
		t.Fatal("Views accepted a copy of the block")
	}

	bad := tinyDataset()
	bad.Samples[2].Features = slices.Clone(bad.Samples[2].Features)
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "sample 2's") {
			t.Fatalf("FromDataset on a copied sample: recovered %v, want a panic naming sample 2", r)
		}
	}()
	FromDataset(bad)
}

// BenchmarkFromDataset times the graph build at Avazu 1e-3: one pass over
// the feature block and the degree vector's allocation.
func BenchmarkFromDataset(b *testing.B) {
	ds, err := dataset.New(dataset.Avazu, 1e-3, 9)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		FromDataset(ds)
	}
}

func TestDegreeStats(t *testing.T) {
	ds, _ := dataset.New(dataset.Criteo, 1e-4, 9)
	g := FromDataset(ds)
	st := g.DegreeStats()
	if st.Max < st.Median {
		t.Errorf("max %d < median %d", st.Max, st.Median)
	}
	if st.Top1Share <= 0 || st.Top1Share > 1 {
		t.Errorf("top1 share %v out of (0,1]", st.Top1Share)
	}
	if st.Top1Share > st.Top5Share || st.Top5Share > st.Top10Share {
		t.Errorf("share ordering broken: %v %v %v", st.Top1Share, st.Top5Share, st.Top10Share)
	}
	// The paper's skewness observation: top 10% of embeddings carry a
	// disproportionate share of accesses.
	if st.Top10Share < 0.3 {
		t.Errorf("top10 share %v: dataset not skewed", st.Top10Share)
	}
}

func TestDegreeStatsEmpty(t *testing.T) {
	g := &Bigraph{}
	if st := g.DegreeStats(); st.Max != 0 {
		t.Errorf("empty stats: %+v", st)
	}
}

func TestCountTable(t *testing.T) {
	g := FromDataset(tinyDataset())
	// Samples 0,1 → partition 0; samples 2,3 → partition 1.
	assign := []int{0, 0, 1, 1}
	ct := NewCountTable(g, 2, assign)
	cases := []struct {
		x    int32
		p    int
		want int32
	}{
		{0, 0, 2}, {0, 1, 1},
		{1, 0, 0}, {1, 1, 1},
		{2, 0, 1}, {2, 1, 1},
		{3, 0, 1}, {3, 1, 0},
		{4, 0, 0}, {4, 1, 1},
	}
	for _, c := range cases {
		if got := ct.Count(c.x, c.p); got != c.want {
			t.Errorf("count(%d, %d) = %d, want %d", c.x, c.p, got, c.want)
		}
	}
}

func TestCountTableMoveSample(t *testing.T) {
	g := FromDataset(tinyDataset())
	assign := []int{0, 0, 1, 1}
	ct := NewCountTable(g, 2, assign)
	ct.MoveSample(0, 0, 1) // sample 0 uses features 0 and 2
	if got := ct.Count(0, 0); got != 1 {
		t.Errorf("count(0,0) after move = %d, want 1", got)
	}
	if got := ct.Count(0, 1); got != 2 {
		t.Errorf("count(0,1) after move = %d, want 2", got)
	}
	if got := ct.Count(2, 1); got != 2 {
		t.Errorf("count(2,1) after move = %d, want 2", got)
	}
	// Move to same partition is a no-op.
	before := ct.Count(0, 1)
	ct.MoveSample(0, 1, 1)
	if ct.Count(0, 1) != before {
		t.Error("same-partition move changed counts")
	}
}

func TestCountTableUnassigned(t *testing.T) {
	g := FromDataset(tinyDataset())
	assign := []int{-1, -1, -1, -1}
	ct := NewCountTable(g, 2, assign)
	for x := int32(0); x < 5; x++ {
		if ct.Count(x, 0) != 0 || ct.Count(x, 1) != 0 {
			t.Fatalf("unassigned table has counts for feature %d", x)
		}
	}
	ct.MoveSample(0, -1, 0)
	if ct.Count(0, 0) != 1 {
		t.Error("MoveSample from -1 did not add")
	}
}

func TestCountTableMatchesRecount(t *testing.T) {
	// Property: after a random sequence of moves, incremental counts match
	// a from-scratch rebuild.
	ds, _ := dataset.New(dataset.Avazu, 5e-5, 11)
	g := FromDataset(ds)
	const n = 4
	assign := make([]int, g.NumSamples)
	for i := range assign {
		assign[i] = i % n
	}
	ct := NewCountTable(g, n, assign)
	f := func(moves []uint16) bool {
		for _, mv := range moves {
			s := int(mv) % g.NumSamples
			to := int(mv/256) % n
			ct.MoveSample(s, assign[s], to)
			assign[s] = to
		}
		fresh := NewCountTable(g, n, assign)
		for x := int32(0); int(x) < g.NumFeatures; x++ {
			for p := 0; p < n; p++ {
				if ct.Count(x, p) != fresh.Count(x, p) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestApplyMovesMatchesIndividualMoves(t *testing.T) {
	g := FromDataset(tinyDataset())
	assign := []int{0, 0, 1, 1}
	batched := NewCountTable(g, 2, assign)
	oneByOne := NewCountTable(g, 2, assign)

	moves := []SampleMove{
		{Sample: 0, From: 0, To: 1},
		{Sample: 2, From: 1, To: 0},
		{Sample: 0, From: 1, To: 0}, // moves back
		{Sample: 3, From: 1, To: 1}, // no-op
	}
	batched.ApplyMoves(moves)
	for _, m := range moves {
		oneByOne.MoveSample(m.Sample, m.From, m.To)
	}
	for x := int32(0); x < 5; x++ {
		for i := 0; i < 2; i++ {
			if batched.Count(x, i) != oneByOne.Count(x, i) {
				t.Errorf("count(%d,%d): batched %d, one-by-one %d",
					x, i, batched.Count(x, i), oneByOne.Count(x, i))
			}
		}
	}
}

func TestPartitionTotals(t *testing.T) {
	g := FromDataset(tinyDataset())
	// Samples 0,1 → partition 0 (edges: 0-0, 0-2, 1-0, 1-3), samples 2,3 →
	// partition 1 (edges: 2-1, 2-2, 3-0, 3-4).
	ct := NewCountTable(g, 2, []int{0, 0, 1, 1})
	tot := ct.PartitionTotals()
	if tot[0] != 4 || tot[1] != 4 {
		t.Fatalf("totals %v, want [4 4]", tot)
	}
	ct.MoveSample(0, 0, 1)
	tot = ct.PartitionTotals()
	if tot[0] != 2 || tot[1] != 6 {
		t.Fatalf("totals after move %v, want [2 6]", tot)
	}
	var sum int64
	for _, v := range tot {
		sum += v
	}
	if sum != g.NumEdges() {
		t.Errorf("totals sum %d, want edge count %d", sum, g.NumEdges())
	}
}

func TestVerifyRecountDetectsDrift(t *testing.T) {
	g := FromDataset(tinyDataset())
	assign := []int{0, 0, 1, 1}
	ct := NewCountTable(g, 2, assign)
	if err := ct.VerifyRecount(assign); err != nil {
		t.Fatalf("fresh table failed verification: %v", err)
	}
	// Apply a move but "forget" to update the assignment slice: the table
	// and the assignment now disagree and verification must say so.
	ct.MoveSample(0, 0, 1)
	if err := ct.VerifyRecount(assign); err == nil {
		t.Fatal("drifted table passed verification")
	}
	assign[0] = 1
	if err := ct.VerifyRecount(assign); err != nil {
		t.Fatalf("consistent state failed verification: %v", err)
	}
}
