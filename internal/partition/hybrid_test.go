package partition

import (
	"slices"
	"sort"
	"testing"

	"hetgmp/internal/bigraph"
	"hetgmp/internal/dataset"
	"hetgmp/internal/xrand"
)

func TestHybridConfigValidate(t *testing.T) {
	t.Parallel()
	good := DefaultHybridConfig(8)
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []func(*HybridConfig){
		func(c *HybridConfig) { c.Partitions = 0 },
		func(c *HybridConfig) { c.Partitions = MaxPartitions + 1 },
		func(c *HybridConfig) { c.Rounds = 0 },
		func(c *HybridConfig) { c.ReplicaFraction = -0.1 },
		func(c *HybridConfig) { c.ReplicaFraction = 1.1 },
		func(c *HybridConfig) { c.ReplicaBudget = -1 },
		func(c *HybridConfig) { c.BalanceSlack = -0.5 },
		func(c *HybridConfig) { c.Weights = [][]float64{{0}} },
	}
	for i, mutate := range bad {
		cfg := DefaultHybridConfig(8)
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestHybridImprovesOverRandom(t *testing.T) {
	t.Parallel()
	g := testDataset(t, dataset.Avazu, 2e-4)
	cfg := DefaultHybridConfig(8)
	cfg.Rounds = 3
	res, err := Hybrid(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Assignment.Validate(); err != nil {
		t.Fatal(err)
	}
	random := Random(g, 8, cfg.Seed)
	hq := Evaluate(g, res.Assignment, nil)
	rq := Evaluate(g, random, nil)
	if hq.RemoteAccesses >= rq.RemoteAccesses/2 {
		t.Errorf("hybrid remote %d not < half of random %d", hq.RemoteAccesses, rq.RemoteAccesses)
	}
}

func TestHybridRespectsBalanceCap(t *testing.T) {
	t.Parallel()
	g := testDataset(t, dataset.Criteo, 2e-4)
	cfg := DefaultHybridConfig(8)
	cfg.Rounds = 3
	cfg.BalanceSlack = 0.1
	res, err := Hybrid(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	q := Evaluate(g, res.Assignment, nil)
	// Cap plus one-off rounding effects: allow a small margin.
	if q.SampleImbalance > 1.15 {
		t.Errorf("sample imbalance %v exceeds cap", q.SampleImbalance)
	}
	if q.FeatureImbalance > 1.15 {
		t.Errorf("feature imbalance %v exceeds cap", q.FeatureImbalance)
	}
}

func TestHybridRoundsImprove(t *testing.T) {
	t.Parallel()
	g := testDataset(t, dataset.Avazu, 2e-4)
	cfg := DefaultHybridConfig(8)
	cfg.Rounds = 4
	res, err := Hybrid(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != 4 {
		t.Fatalf("rounds recorded: %d", len(res.Rounds))
	}
	if res.Rounds[3].RemoteAccesses > res.Rounds[0].RemoteAccesses {
		t.Errorf("round 4 (%d) worse than round 1 (%d)",
			res.Rounds[3].RemoteAccesses, res.Rounds[0].RemoteAccesses)
	}
	for i, rs := range res.Rounds {
		if rs.Round != i+1 {
			t.Errorf("round %d labelled %d", i, rs.Round)
		}
		if i > 0 && rs.Elapsed < res.Rounds[i-1].Elapsed {
			t.Error("elapsed time not cumulative")
		}
	}
}

func TestHybridDeterministic(t *testing.T) {
	t.Parallel()
	g := testDataset(t, dataset.Avazu, 1e-4)
	cfg := DefaultHybridConfig(4)
	cfg.Rounds = 2
	a, err := Hybrid(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Hybrid(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Assignment.SampleOf {
		if a.Assignment.SampleOf[i] != b.Assignment.SampleOf[i] {
			t.Fatal("sample assignment not deterministic")
		}
	}
	for x := range a.Assignment.PrimaryOf {
		if a.Assignment.PrimaryOf[x] != b.Assignment.PrimaryOf[x] {
			t.Fatal("primary assignment not deterministic")
		}
		if a.Assignment.replicas[x] != b.Assignment.replicas[x] {
			t.Fatal("replica sets not deterministic")
		}
	}
}

func TestHybridReplicaBudget(t *testing.T) {
	t.Parallel()
	g := testDataset(t, dataset.Avazu, 1e-4)
	cfg := DefaultHybridConfig(4)
	cfg.Rounds = 2
	cfg.ReplicaBudget = 10
	cfg.ReplicaFraction = 0 // budget must win
	res, err := Hybrid(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 4; p++ {
		if got := len(res.Assignment.SecondariesOn(p)); got > 10 {
			t.Errorf("partition %d holds %d secondaries, budget 10", p, got)
		}
	}
}

func TestHybridNoReplication(t *testing.T) {
	t.Parallel()
	g := testDataset(t, dataset.Avazu, 1e-4)
	cfg := DefaultHybridConfig(4)
	cfg.Rounds = 2
	cfg.ReplicaFraction = 0
	res, err := Hybrid(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	q := Evaluate(g, res.Assignment, nil)
	if q.ReplicationFactor != 1 {
		t.Errorf("replication factor %v with replication disabled", q.ReplicationFactor)
	}
}

func TestHybridReplicationReducesRemote(t *testing.T) {
	t.Parallel()
	g := testDataset(t, dataset.Criteo, 2e-4)
	base := DefaultHybridConfig(8)
	base.Rounds = 2
	base.ReplicaFraction = 0
	noRep, err := Hybrid(g, base)
	if err != nil {
		t.Fatal(err)
	}
	withRep := base
	withRep.ReplicaFraction = 0.01
	rep, err := Hybrid(g, withRep)
	if err != nil {
		t.Fatal(err)
	}
	nq := Evaluate(g, noRep.Assignment, nil)
	rq := Evaluate(g, rep.Assignment, nil)
	if rq.RemoteAccesses >= nq.RemoteAccesses {
		t.Errorf("replication did not reduce remote: %d vs %d",
			rq.RemoteAccesses, nq.RemoteAccesses)
	}
}

func TestHybridWeightedPrefersCheapLinks(t *testing.T) {
	t.Parallel()
	// With a 2-group weight matrix (cheap within a group, expensive
	// across), the weighted cost of the hierarchical partition must beat
	// an unweighted partition evaluated under the same prices. Needs
	// enough data (and rounds) for the super-cluster signal to rise above
	// greedy noise.
	g := testDataset(t, dataset.Criteo, 5e-4)
	const n = 8
	w := make([][]float64, n)
	for i := range w {
		w[i] = make([]float64, n)
		for j := range w[i] {
			switch {
			case i == j:
			case i/4 == j/4:
				w[i][j] = 1
			default:
				w[i][j] = 20
			}
		}
	}
	uw := DefaultHybridConfig(n)
	uw.Rounds = 3
	unweighted, err := Hybrid(g, uw)
	if err != nil {
		t.Fatal(err)
	}
	wc := uw
	wc.Weights = w
	weighted, err := Hybrid(g, wc)
	if err != nil {
		t.Fatal(err)
	}
	uq := Evaluate(g, unweighted.Assignment, w)
	wq := Evaluate(g, weighted.Assignment, w)
	if wq.WeightedCost >= uq.WeightedCost {
		t.Errorf("weighted partitioner cost %v not below unweighted %v",
			wq.WeightedCost, uq.WeightedCost)
	}
}

func TestBiCutImprovesOverRandom(t *testing.T) {
	t.Parallel()
	g := testDataset(t, dataset.Criteo, 2e-4)
	a, err := BiCut(g, BiCutConfig{Partitions: 8, BalanceSlack: 0.05, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	random := Random(g, 8, 3)
	bq := Evaluate(g, a, nil)
	rq := Evaluate(g, random, nil)
	if bq.RemoteAccesses >= rq.RemoteAccesses {
		t.Errorf("bicut %d not below random %d", bq.RemoteAccesses, rq.RemoteAccesses)
	}
	if bq.FeatureImbalance > 1.06 {
		t.Errorf("bicut feature imbalance %v exceeds slack", bq.FeatureImbalance)
	}
	if bq.ReplicationFactor != 1 {
		t.Error("bicut should not replicate")
	}
}

func TestBiCutErrors(t *testing.T) {
	t.Parallel()
	g := tinyGraph()
	if _, err := BiCut(g, BiCutConfig{Partitions: 0}); err == nil {
		t.Error("zero partitions accepted")
	}
	if _, err := BiCut(g, BiCutConfig{Partitions: 2, BalanceSlack: -1}); err == nil {
		t.Error("negative slack accepted")
	}
}

func TestHybridOrderingMatchesPaper(t *testing.T) {
	t.Parallel()
	// The Table 3 ordering: random > bicut > hybrid(1) > hybrid(3+).
	g := testDataset(t, dataset.Criteo, 3e-4)
	random := Evaluate(g, Random(g, 8, 7), nil).RemoteAccesses
	bc, err := BiCut(g, BiCutConfig{Partitions: 8, BalanceSlack: 0.05, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	bicut := Evaluate(g, bc, nil).RemoteAccesses
	cfg := DefaultHybridConfig(8)
	cfg.Rounds = 3
	cfg.Seed = 7
	hr, err := Hybrid(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r1 := hr.Rounds[0].RemoteAccesses
	r3 := hr.Rounds[2].RemoteAccesses
	if !(random > bicut && bicut > r1 && r1 >= r3) {
		t.Errorf("ordering broken: random=%d bicut=%d ours1=%d ours3=%d",
			random, bicut, r1, r3)
	}
}

func BenchmarkHybridPartition(b *testing.B) {
	ds, err := dataset.New(dataset.Avazu, 2e-4, 31)
	if err != nil {
		b.Fatal(err)
	}
	g := bigraph.FromDataset(ds)
	cfg := DefaultHybridConfig(8)
	cfg.Rounds = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Hybrid(g, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBiCut(b *testing.B) {
	ds, err := dataset.New(dataset.Avazu, 2e-4, 31)
	if err != nil {
		b.Fatal(err)
	}
	g := bigraph.FromDataset(ds)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BiCut(g, BiCutConfig{Partitions: 8, BalanceSlack: 0.05, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// sortFeatByDegreeOracle is the comparison sort the degree order used before
// it became a radix sort, kept verbatim.
func sortFeatByDegreeOracle(order []int32, degree []int32) {
	sort.Slice(order, func(i, j int) bool {
		di, dj := degree[order[i]], degree[order[j]]
		if di != dj {
			return di > dj
		}
		return order[i] < order[j]
	})
}

// TestSortFeatByDegreeMatchesComparator holds the radix degree order to the
// comparator's on both sides of the 11-bit digit boundaries, with ties,
// uniform degrees and degrees that need three digits.
func TestSortFeatByDegreeMatchesComparator(t *testing.T) {
	t.Parallel()
	r := xrand.New(29)
	gens := []struct {
		name string
		gen  func(x int) int32
	}{
		{"all-zero", func(int) int32 { return 0 }},
		{"all-equal", func(int) int32 { return 7 }},
		{"ties", func(int) int32 { return int32(r.Intn(5)) }},
		{"two-digit", func(int) int32 { return int32(r.Intn(1 << 16)) }},
		{"zipf-like", func(x int) int32 { return int32(1e6 / (x + 1)) }},
		{"three-digit", func(x int) int32 {
			if x%3 == 0 {
				return 1<<31 - 1 - int32(r.Intn(3)) // forces the third digit
			}
			return int32(r.Intn(1 << 23))
		}},
	}
	for _, n := range []int{0, 1, 2, 2047, 2048, 5000} {
		for _, g := range gens {
			degree := make([]int32, n)
			for x := range degree {
				degree[x] = g.gen(x)
			}
			want := make([]int32, n)
			for i := range want {
				want[i] = int32(i)
			}
			sortFeatByDegreeOracle(want, degree)
			if got := sortFeatByDegree(degree); !slices.Equal(got, want) {
				t.Fatalf("n=%d %s: radix order differs from the comparator", n, g.name)
			}
		}
	}
}
