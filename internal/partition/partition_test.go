package partition

import (
	"testing"

	"hetgmp/internal/bigraph"
	"hetgmp/internal/dataset"
)

// tinyGraph builds the hand-written bigraph used by exact-count tests:
// 4 samples × 2 fields over 5 features.
func tinyGraph() *bigraph.Bigraph {
	mk := func(a, b int32) dataset.Sample {
		return dataset.Sample{Features: []int32{a, b}, Label: 1}
	}
	return bigraph.FromDataset((&dataset.Dataset{
		Name: "tiny", NumFields: 2, NumFeatures: 5,
		FieldOffset: []int32{0, 2, 5},
		Samples: []dataset.Sample{
			mk(0, 2), mk(0, 3), mk(1, 2), mk(0, 4),
		},
	}).Pack())
}

func testDataset(t *testing.T, name string, scale float64) *bigraph.Bigraph {
	t.Helper()
	ds, err := dataset.New(name, scale, 31)
	if err != nil {
		t.Fatal(err)
	}
	return bigraph.FromDataset(ds)
}

func TestNewAssignmentUnassigned(t *testing.T) {
	t.Parallel()
	a := NewAssignment(4, 3, 5)
	for _, p := range a.SampleOf {
		if p != -1 {
			t.Fatal("samples not initialised to -1")
		}
	}
	for _, p := range a.PrimaryOf {
		if p != -1 {
			t.Fatal("features not initialised to -1")
		}
	}
}

func TestNewAssignmentPanics(t *testing.T) {
	t.Parallel()
	for _, n := range []int{0, -1, MaxPartitions + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewAssignment(%d) accepted", n)
				}
			}()
			NewAssignment(n, 1, 1)
		}()
	}
}

func TestReplicaOperations(t *testing.T) {
	t.Parallel()
	a := NewAssignment(4, 2, 3)
	a.PrimaryOf[0] = 1
	a.AddReplica(0, 2)
	a.AddReplica(0, 1) // primary partition: no-op
	if !a.HasReplica(0, 2) {
		t.Error("replica on 2 missing")
	}
	if a.HasReplica(0, 1) {
		t.Error("replica allowed on primary partition")
	}
	if !a.IsLocal(0, 1) || !a.IsLocal(0, 2) || a.IsLocal(0, 3) {
		t.Error("IsLocal wrong")
	}
	if got := a.ReplicaCount(0); got != 1 {
		t.Errorf("ReplicaCount = %d", got)
	}
	if got := a.Replicas(0); len(got) != 1 || got[0] != 2 {
		t.Errorf("Replicas = %v", got)
	}
	a.ClearReplicas(0)
	if a.ReplicaCount(0) != 0 {
		t.Error("ClearReplicas failed")
	}
}

func TestSecondariesOn(t *testing.T) {
	t.Parallel()
	a := NewAssignment(3, 1, 4)
	for x := range a.PrimaryOf {
		a.PrimaryOf[x] = 0
	}
	a.AddReplica(1, 2)
	a.AddReplica(3, 2)
	got := a.SecondariesOn(2)
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("SecondariesOn(2) = %v", got)
	}
	if a.SecondariesOn(1) != nil {
		t.Error("SecondariesOn(1) should be empty")
	}
}

func TestValidate(t *testing.T) {
	t.Parallel()
	g := tinyGraph()
	a := Random(g, 3, 1)
	if err := a.Validate(); err != nil {
		t.Errorf("random assignment invalid: %v", err)
	}
	a.SampleOf[0] = 7
	if err := a.Validate(); err == nil {
		t.Error("out-of-range sample accepted")
	}
	a.SampleOf[0] = 0
	a.PrimaryOf[0] = -1
	if err := a.Validate(); err == nil {
		t.Error("unassigned feature accepted")
	}
	a.PrimaryOf[0] = 1
	a.replicas[0].Set(1) // replica bit on the primary partition
	if err := a.Validate(); err == nil {
		t.Error("replica-on-primary accepted")
	}
}

func TestEvaluateExactCounts(t *testing.T) {
	t.Parallel()
	g := tinyGraph()
	a := NewAssignment(2, g.NumSamples, g.NumFeatures)
	// Samples 0,1 → 0; samples 2,3 → 1.
	copy(a.SampleOf, []int{0, 0, 1, 1})
	// Features 0,2 → 0; features 1,3,4 → 1.
	copy(a.PrimaryOf, []int{0, 1, 0, 1, 1})
	q := Evaluate(g, a, nil)
	// Edges: s0(0,2) local,local; s1(0,3): local, remote(3 on 1);
	// s2(1,2): local(1 on 1), remote(2 on 0); s3(0,4): remote(0), local(4).
	if q.RemoteAccesses != 3 {
		t.Fatalf("RemoteAccesses = %d, want 3", q.RemoteAccesses)
	}
	if q.LocalFraction != 1-3.0/8 {
		t.Errorf("LocalFraction = %v", q.LocalFraction)
	}
	if q.ReplicationFactor != 1 {
		t.Errorf("ReplicationFactor = %v, want 1", q.ReplicationFactor)
	}
	// Replicating feature 3 on partition 0 removes one remote access.
	a.AddReplica(3, 0)
	q2 := Evaluate(g, a, nil)
	if q2.RemoteAccesses != 2 {
		t.Errorf("after replica: RemoteAccesses = %d, want 2", q2.RemoteAccesses)
	}
	if q2.ReplicationFactor != 1.2 {
		t.Errorf("ReplicationFactor = %v, want 1.2", q2.ReplicationFactor)
	}
}

func TestEvaluateWeighted(t *testing.T) {
	t.Parallel()
	g := tinyGraph()
	a := NewAssignment(2, g.NumSamples, g.NumFeatures)
	copy(a.SampleOf, []int{0, 0, 1, 1})
	copy(a.PrimaryOf, []int{0, 1, 0, 1, 1})
	w := [][]float64{{0, 5}, {5, 0}}
	q := Evaluate(g, a, w)
	if q.WeightedCost != 15 { // 3 remote × weight 5
		t.Errorf("WeightedCost = %v, want 15", q.WeightedCost)
	}
}

func TestTrafficMatrixSums(t *testing.T) {
	t.Parallel()
	g := tinyGraph()
	a := NewAssignment(2, g.NumSamples, g.NumFeatures)
	copy(a.SampleOf, []int{0, 0, 1, 1})
	copy(a.PrimaryOf, []int{0, 1, 0, 1, 1})
	m := TrafficMatrix(g, a)
	var total int64
	for i := range m {
		for j := range m[i] {
			total += m[i][j]
		}
	}
	if total != g.NumEdges() {
		t.Fatalf("traffic total %d, want %d edges", total, g.NumEdges())
	}
	// Diagonal holds local accesses: 8 − 3 remote = 5.
	if m[0][0]+m[1][1] != 5 {
		t.Errorf("local accesses %d, want 5", m[0][0]+m[1][1])
	}
	if m[1][0] != 1 { // feature 3 (primary on 1) fetched by sample 1 on 0
		t.Errorf("m[1][0] = %d, want 1", m[1][0])
	}
}

func TestRandomCoversAllPartitions(t *testing.T) {
	t.Parallel()
	g := testDataset(t, dataset.Avazu, 1e-4)
	a := Random(g, 8, 5)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	q := Evaluate(g, a, nil)
	for p, c := range q.SamplesPerPart {
		if c == 0 {
			t.Errorf("partition %d has no samples", p)
		}
	}
	if q.SampleImbalance > 1.2 {
		t.Errorf("random imbalance %v too high", q.SampleImbalance)
	}
	// Random placement leaves ~1/N locality.
	if q.LocalFraction > 0.25 {
		t.Errorf("random local fraction %v suspiciously high", q.LocalFraction)
	}
}

func TestRandomDeterministic(t *testing.T) {
	t.Parallel()
	g := tinyGraph()
	a := Random(g, 4, 9)
	b := Random(g, 4, 9)
	for i := range a.SampleOf {
		if a.SampleOf[i] != b.SampleOf[i] {
			t.Fatal("random assignment not deterministic")
		}
	}
	c := Random(g, 4, 10)
	diff := false
	for i := range a.PrimaryOf {
		if a.PrimaryOf[i] != c.PrimaryOf[i] {
			diff = true
			break
		}
	}
	if !diff && g.NumFeatures > 1 {
		t.Error("different seeds gave identical assignment")
	}
}

func TestNormalizedEntropy(t *testing.T) {
	t.Parallel()
	if got := normalizedEntropy([]int{10, 10, 10, 10}); got < 0.999 {
		t.Errorf("even loads entropy %v, want ~1", got)
	}
	if got := normalizedEntropy([]int{40, 0, 0, 0}); got != 0 {
		t.Errorf("concentrated entropy %v, want 0", got)
	}
	if got := normalizedEntropy(nil); got != 1 {
		t.Errorf("empty entropy %v, want 1", got)
	}
}

func TestImbalance(t *testing.T) {
	t.Parallel()
	if got := imbalance([]int{10, 10}); got != 1 {
		t.Errorf("balanced imbalance %v", got)
	}
	if got := imbalance([]int{30, 10}); got != 1.5 {
		t.Errorf("imbalance %v, want 1.5", got)
	}
	if got := imbalance(nil); got != 1 {
		t.Errorf("empty imbalance %v", got)
	}
}
