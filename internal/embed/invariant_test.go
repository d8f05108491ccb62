package embed

import (
	"strings"
	"testing"

	"hetgmp/internal/invariant"
	"hetgmp/internal/optim"
	"hetgmp/internal/tensor"
)

// newCheckedTable builds the standard 2-worker test table with an enabled
// invariant checker attached.
func newCheckedTable(t *testing.T) (*Table, *invariant.Checker) {
	t.Helper()
	ck := invariant.New()
	tbl, err := NewTable(Config{
		NumFeatures: 6,
		Dim:         4,
		Assign:      testAssign(),
		Freq:        []int32{10, 1, 1, 5, 1, 1},
		Optimizer:   optim.NewSGD(1),
		LocalLR:     1,
		Seed:        3,
		Check:       ck,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tbl, ck
}

// ones returns a 1×dim gradient matrix of ones.
func ones(dim int) *tensor.Matrix {
	g := tensor.NewMatrix(1, dim)
	for i := range g.Data {
		g.Data[i] = 1
	}
	return g
}

func TestCheckedTableNormalOperationIsClean(t *testing.T) {
	tbl, ck := newCheckedTable(t)
	dst := tensor.NewMatrix(6, 4)
	g := ones(4)
	for iter := 0; iter < 8; iter++ {
		for w := 0; w < 2; w++ {
			tbl.Read(w, []int32{0, 3, 4}, dst, ReadOptions{Staleness: 1, InterCheck: true, Normalize: true})
			tbl.Update(w, []int32{3}, g, 1)
		}
		tbl.Commit()
	}
	tbl.FlushAll()
	got := ck.Counts()
	if got.Checks == 0 {
		t.Fatal("checker attached but no checks ran")
	}
	if got.Violations != 0 {
		t.Fatalf("clean run recorded %d violations: %v", got.Violations, ck.Violations())
	}
	// The hot rules must all have been exercised.
	for _, r := range []invariant.Rule{
		invariant.ClockMonotonic, invariant.ReplicaBound,
		invariant.IntraStaleness, invariant.InterStaleness,
		invariant.CommitDiscipline,
	} {
		if got.PerRule[r].Checks == 0 {
			t.Errorf("rule %v never checked", r)
		}
	}
}

// TestCorruptedPrimaryClockTripsChecker is the acceptance probe: drive a
// primary clock negative behind the protocol's back and verify the next
// commit panics with a fully-populated structured report.
func TestCorruptedPrimaryClockTripsChecker(t *testing.T) {
	tbl, _ := newCheckedTable(t)
	g := ones(4)
	tbl.Update(1, []int32{3}, g, 0) // queues an update for 3's primary (worker 1)
	tbl.primaryClock[3] = -5        // deliberate corruption: clock ran backwards

	defer func() {
		v, ok := recover().(*invariant.Violation)
		if !ok {
			t.Fatal("corrupted clock did not trip the checker")
		}
		if v.Rule != invariant.ClockMonotonic {
			t.Fatalf("rule = %v, want clock-monotonic", v.Rule)
		}
		if v.Component != "embed.Table" || v.Feature != 3 {
			t.Fatalf("report misattributed: %+v", v)
		}
		if !strings.Contains(v.Error(), "clock-monotonic") {
			t.Fatalf("unstructured report: %q", v.Error())
		}
	}()
	tbl.Commit()
	t.Fatal("commit accepted a negative primary clock")
}

// replicaRow is sh's secondary row of feature x. It fails the test when sh
// holds no secondary of x, rather than let the caller corrupt some other row.
func replicaRow(t *testing.T, sh *shard, x int32) int32 {
	t.Helper()
	row, ok := sh.index.Get(x)
	if !ok {
		t.Fatalf("shard holds no secondary of feature %d", x)
	}
	return row
}

func TestReplicaAheadOfPrimaryTripsChecker(t *testing.T) {
	tbl, _ := newCheckedTable(t)
	sh := tbl.shards[0]
	sh.baseClock[replicaRow(t, sh, 3)] = 100 // replica claims to be ahead of its primary

	defer func() {
		v, ok := recover().(*invariant.Violation)
		if !ok {
			t.Fatal("runaway replica clock did not trip the checker")
		}
		if v.Rule != invariant.ReplicaBound || v.Feature != 3 || v.Worker != 0 {
			t.Fatalf("report: %+v", v)
		}
		if v.Replica != 100 || v.Primary != 0 {
			t.Fatalf("clock values not carried: %+v", v)
		}
	}()
	tbl.Commit()
	t.Fatal("commit accepted a replica clock ahead of its primary")
}

func TestRecordModeCollectsInsteadOfPanicking(t *testing.T) {
	tbl, ck := newCheckedTable(t)
	ck.SetRecordOnly(true)
	sh := tbl.shards[0]
	sh.baseClock[replicaRow(t, sh, 3)] = 100
	tbl.Commit() // must not panic in record mode
	vs := ck.Violations()
	if len(vs) == 0 {
		t.Fatal("record mode retained no violations")
	}
	if vs[0].Rule != invariant.ReplicaBound {
		t.Fatalf("recorded rule %v", vs[0].Rule)
	}
	if ck.Counts().Violations == 0 {
		t.Fatal("violation counter not incremented")
	}
}

func TestVerifyCommittedNoCheckerIsNoop(t *testing.T) {
	tbl := newTestTable(t)
	// Corrupt state, but with no checker attached nothing may fire.
	tbl.shards[0].baseClock[replicaRow(t, tbl.shards[0], 3)] = 100
	tbl.VerifyCommitted()
	tbl.Commit()
}

func TestReadObservesStalenessGap(t *testing.T) {
	tbl, ck := newCheckedTable(t)
	g := ones(4)
	// Advance feature 3's primary by 3 updates from its owner (worker 1).
	for i := 0; i < 3; i++ {
		tbl.Update(1, []int32{3}, g, StalenessInf)
	}
	tbl.FlushAll() // worker 1's pending flushed into the primary clock
	// Advance further so worker 0's replica lags by a visible gap.
	for i := 0; i < 4; i++ {
		tbl.Update(1, []int32{3}, g, 0)
	}
	tbl.Commit()
	dst := tensor.NewMatrix(1, 4)
	tbl.Read(0, []int32{3}, dst, ReadOptions{Staleness: StalenessInf})
	if got := ck.MaxObserved(invariant.IntraStaleness); got <= 0 {
		t.Fatalf("observed max staleness gap %d, want positive", got)
	}
	if got := ck.Counts(); got.Violations != 0 {
		t.Fatalf("s=inf read violated: %v", ck.Violations())
	}
}
