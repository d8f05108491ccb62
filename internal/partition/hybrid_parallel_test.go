package partition

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"runtime"
	"testing"

	"hetgmp/internal/bigraph"
	"hetgmp/internal/cluster"
	"hetgmp/internal/dataset"
)

// assignmentsEqual reports whether two hybrid results assign every sample,
// primary and replica set identically.
func assignmentsEqual(t *testing.T, label string, a, b *Assignment) {
	t.Helper()
	for i := range a.SampleOf {
		if a.SampleOf[i] != b.SampleOf[i] {
			t.Fatalf("%s: sample %d assigned %d vs %d", label, i, a.SampleOf[i], b.SampleOf[i])
		}
	}
	for x := range a.PrimaryOf {
		if a.PrimaryOf[x] != b.PrimaryOf[x] {
			t.Fatalf("%s: primary %d assigned %d vs %d", label, x, a.PrimaryOf[x], b.PrimaryOf[x])
		}
		if a.replicas[x] != b.replicas[x] {
			t.Fatalf("%s: replica set of %d differs", label, x)
		}
	}
}

// TestHybridParallelDeterminism is the core guarantee of the chunked-delta
// design: the assignment is a pure function of the graph and the seed, never
// of how many goroutines scored it or how the visit order was blocked.
func TestHybridParallelDeterminism(t *testing.T) {
	g := testDataset(t, dataset.Avazu, 2e-4)
	base := func() HybridConfig {
		cfg := DefaultHybridConfig(8)
		cfg.Rounds = 3
		return cfg
	}
	ref, err := Hybrid(g, base())
	if err != nil {
		t.Fatal(err)
	}

	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range []int{1, 4, 8} {
		runtime.GOMAXPROCS(procs)
		got, err := Hybrid(g, base())
		if err != nil {
			t.Fatal(err)
		}
		assignmentsEqual(t, "GOMAXPROCS", ref.Assignment, got.Assignment)
	}
	runtime.GOMAXPROCS(prev)

	for _, workers := range []int{1, 4, 8} {
		cfg := base()
		cfg.Parallelism = workers
		got, err := Hybrid(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		assignmentsEqual(t, "Parallelism", ref.Assignment, got.Assignment)
	}

	// Blocks of 1 and 7 make nearly every vertex a hand-off between the
	// scoring goroutines and the reducer.
	for _, block := range []int{1, 7, 64, 1000, 1 << 20} {
		cfg := base()
		cfg.DeltaBlock = block
		got, err := Hybrid(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		assignmentsEqual(t, "DeltaBlock", ref.Assignment, got.Assignment)
	}

	// Degenerate graphs: nothing to score, and a single sample.
	for _, tc := range []struct {
		name     string
		features int
		samples  []dataset.Sample
	}{
		{"empty", 0, nil},
		{"one-sample", 5, []dataset.Sample{{Features: []int32{0, 3}, Label: 1}}},
	} {
		small := bigraph.FromDataset((&dataset.Dataset{
			Name: tc.name, NumFields: 2, NumFeatures: tc.features, Samples: tc.samples,
		}).Pack())
		want, err := Hybrid(small, base())
		if err != nil {
			t.Fatal(err)
		}
		if err := want.Assignment.Validate(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, block := range []int{1, 7} {
			for _, workers := range []int{1, 4} {
				cfg := base()
				cfg.DeltaBlock, cfg.Parallelism = block, workers
				got, err := Hybrid(small, cfg)
				if err != nil {
					t.Fatal(err)
				}
				assignmentsEqual(t, tc.name, want.Assignment, got.Assignment)
			}
		}
	}
}

// assignmentHash is a SHA-256 over every sample home, every primary home and
// every replica set, in vertex order.
func assignmentHash(a *Assignment) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, p := range a.SampleOf {
		put(uint64(p))
	}
	for _, p := range a.PrimaryOf {
		put(uint64(p))
	}
	for _, r := range a.replicas {
		put(uint64(r))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestHybridAssignmentPinned pins the assignment bytes the partitioner
// produces, so a faster pass that changes one decision fails here. The
// 16-partition cluster-B weights have non-integer entries, so a reordered
// floating-point update of the communication totals would show too.
func TestHybridAssignmentPinned(t *testing.T) {
	scaleOut, err := cluster.ScaleOut(8)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		preset  string
		parts   int
		weights [][]float64
		want    string
	}{
		{"uniform", dataset.Avazu, 8, nil,
			"c89e4ee4853b5123bbce0697c6c3b57494f893113a215598ec87309ffef004ee"},
		{"scaleout8-hierarchical", dataset.Avazu, 8, scaleOut.WeightMatrix(cluster.WeightHierarchical),
			"4bba35fdcaf16341b69c973fba3e9e516ab07bc7a7b9534f6bf3813be40e7cf5"},
		{"clusterB2-hierarchical", dataset.Criteo, 16, cluster.ClusterB(2).WeightMatrix(cluster.WeightHierarchical),
			"a0fad365707f44bbd7ec62ab61aadb19b2d192e97cb2c5637641d3dbab8dfc21"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := testDataset(t, tc.preset, 2e-4)
			cfg := DefaultHybridConfig(tc.parts)
			cfg.Rounds = 3
			cfg.BalanceSlack = 0.05
			cfg.Weights = tc.weights
			res, err := Hybrid(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := assignmentHash(res.Assignment); got != tc.want {
				t.Errorf("assignment SHA-256 %s, pinned %s", got, tc.want)
			}
		})
	}
}

// TestHybridChunkedMatchesReferenceQuality holds the parallel implementation
// to the sequential greedy's partition quality: remote accesses after a full
// 5-round run must stay within 2%, on both uniform and weighted costs.
func TestHybridChunkedMatchesReferenceQuality(t *testing.T) {
	t.Parallel()
	g := testDataset(t, dataset.Avazu, 2e-4)
	weighted := make([][]float64, 8)
	for i := range weighted {
		weighted[i] = make([]float64, 8)
		for j := range weighted[i] {
			if i != j {
				weighted[i][j] = 1
				if i/4 != j/4 {
					weighted[i][j] = 20 // cross-socket
				}
			}
		}
	}
	for _, tc := range []struct {
		name    string
		weights [][]float64
	}{
		{"uniform", nil},
		{"weighted", weighted},
	} {
		cfg := DefaultHybridConfig(8)
		cfg.Weights = tc.weights
		cfg.Reference = true
		ref, err := Hybrid(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Reference = false
		par, err := Hybrid(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		refRemote := ref.Rounds[len(ref.Rounds)-1].RemoteAccesses
		parRemote := par.Rounds[len(par.Rounds)-1].RemoteAccesses
		if float64(parRemote) > 1.02*float64(refRemote) {
			t.Errorf("%s: chunked remote %d exceeds reference %d by more than 2%%",
				tc.name, parRemote, refRemote)
		}
	}
}

// BenchmarkHybridReference benchmarks the sequential baseline for comparison
// with BenchmarkHybridPartition (the parallel implementation).
func BenchmarkHybridReference(b *testing.B) {
	ds, err := dataset.New(dataset.Avazu, 2e-4, 31)
	if err != nil {
		b.Fatal(err)
	}
	g := bigraph.FromDataset(ds)
	cfg := DefaultHybridConfig(8)
	cfg.Rounds = 1
	cfg.Reference = true
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Hybrid(g, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
