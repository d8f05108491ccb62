package embed

import (
	"reflect"
	"testing"
	"unsafe"

	"hetgmp/internal/partition"
	"hetgmp/internal/tensor"
)

// buildPlanShapedTable constructs a table whose shape matches PlanCapacity's
// model exactly: features striped round-robin over workers (so each worker
// primaries ⌈F/W⌉ or ⌊F/W⌋ rows) and the first secRows features replicated
// on every non-primary worker (so each worker holds exactly secRows
// secondaries, like the plan's per-worker secondary count).
func buildPlanShapedTable(t *testing.T, features, dim, workers int, replicaFraction float64) (*Table, *partition.Assignment) {
	t.Helper()
	a := partition.NewAssignment(workers, 1, features)
	a.SampleOf[0] = 0
	secRows := int(replicaFraction * float64(features))
	for x := 0; x < features; x++ {
		a.PrimaryOf[x] = x % workers
		if x < secRows {
			for w := 0; w < workers; w++ {
				if w != a.PrimaryOf[x] {
					a.AddReplica(int32(x), w)
				}
			}
		}
	}
	tab, err := NewTable(Config{NumFeatures: features, Dim: dim, Assign: a, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return tab, a
}

// TestFootprintMatchesPlanCapacity cross-checks the measured footprint
// (memacct) against PlanCapacity's paper-§7.4 arithmetic on a table shaped
// exactly like the plan's model. Tolerances are documented per category:
//
//   - primary values: exact up to ⌈F/W⌉ ceiling rounding (≤ W−1 rows);
//   - secondary values+pending: exact (the plan's 2× is the table's
//     vals+pending pair);
//   - clocks: same ceiling rounding as primaries.
//
// The plan deliberately excludes host-side bookkeeping the measured tree
// reports separately (hash index, pending counts, feature ids, queues):
// those are metadata, not the §7.4 device-memory budget, and live in
// leaves this test does not compare.
func TestFootprintMatchesPlanCapacity(t *testing.T) {
	const (
		features = 10000
		dim      = 16
		workers  = 4
		fraction = 0.01
	)
	tab, _ := buildPlanShapedTable(t, features, dim, workers, fraction)
	plan, err := PlanCapacity(CapacityPlan{
		NumFeatures: features, Dim: dim, Workers: workers,
		WorkerMemBytes: 1 << 30, ReplicaFraction: fraction,
	})
	if err != nil {
		t.Fatal(err)
	}
	fp := tab.Footprint()
	if err := fp.Validate(); err != nil {
		t.Fatalf("footprint invalid: %v", err)
	}

	get := func(path string) int64 {
		t.Helper()
		n, ok := fp.Find(path)
		if !ok {
			t.Fatalf("footprint has no %s", path)
		}
		return n.Bytes
	}
	// One row per worker of ceiling-rounding slack.
	roundSlack := int64(workers) * int64(dim) * 4

	measuredPrimary := get("table.primary.values")
	planPrimary := plan.PrimaryPerWorker * int64(workers)
	if diff := planPrimary - measuredPrimary; diff < 0 || diff > roundSlack {
		t.Fatalf("primary values: measured %d vs plan %d (tolerance %d)", measuredPrimary, planPrimary, roundSlack)
	}

	measuredSecondary := get("table.replicas.values") + get("table.replicas.pending")
	planSecondary := plan.SecondaryPerWorker * int64(workers)
	if measuredSecondary != planSecondary {
		t.Fatalf("secondary values+pending: measured %d vs plan %d (must be exact)", measuredSecondary, planSecondary)
	}

	measuredClocks := get("table.primary.clocks") + get("table.replicas.clocks")
	planClocks := plan.ClockPerWorker * int64(workers)
	if diff := planClocks - measuredClocks; diff < 0 || diff > int64(workers)*8 {
		t.Fatalf("clocks: measured %d vs plan %d (tolerance %d)", measuredClocks, planClocks, int64(workers)*8)
	}
}

// TestFootprintDeterministic pins that two identically configured tables
// measure identical trees (byte accounting is part of the deterministic
// telemetry surface).
func TestFootprintDeterministic(t *testing.T) {
	a, _ := buildPlanShapedTable(t, 2000, 8, 4, 0.02)
	b, _ := buildPlanShapedTable(t, 2000, 8, 4, 0.02)
	fa, fb := a.Footprint(), b.Footprint()
	if fa.Bytes != fb.Bytes {
		t.Fatalf("identical tables measure %d vs %d bytes", fa.Bytes, fb.Bytes)
	}
}

// TestTieredFootprintAccountsAllStructures is the Σ-children bugfix gate:
// the tiered store's arenas, cache index, spill mappings and touch logs
// must all be accounted so the tree still validates (every interior node
// the sum of its children — analyze.VerifyCapacity's invariant) and the
// tier leaves agree with the TierStats ledger.
func TestTieredFootprintAccountsAllStructures(t *testing.T) {
	tbl := tierFixture(t, testTiers())
	driveCommitWorkload(tbl, 2) // grow the touch logs past capacity zero
	fp := tbl.Footprint()
	if err := fp.Validate(); err != nil {
		t.Fatalf("tiered footprint invalid: %v", err)
	}
	get := func(path string) int64 {
		t.Helper()
		n, ok := fp.Find(path)
		if !ok {
			t.Fatalf("footprint has no %s", path)
		}
		return n.Bytes
	}
	ts := tbl.TierStats()
	if got := get("table.primary.hot"); got != ts.HotBytes {
		t.Fatalf("hot node %d bytes, ledger says %d", got, ts.HotBytes)
	}
	if got := get("table.primary.warm"); got != ts.WarmBytes {
		t.Fatalf("warm node %d bytes, ledger says %d", got, ts.WarmBytes)
	}
	if got := get("table.primary.cold"); got != ts.ColdBytes {
		t.Fatalf("cold node %d bytes, ledger says %d", got, ts.ColdBytes)
	}
	if get("table.primary.touch_logs") == 0 {
		t.Fatal("touch logs unaccounted after a driven workload")
	}
	// The warm arena packs exactly the warm rows; the cold mapping holds
	// its rows plus one header per shard.
	if want := int64(ts.WarmRows) * int64(tbl.Dim()) * 4; get("table.primary.warm") != want {
		t.Fatalf("warm arena %d bytes, want %d", get("table.primary.warm"), want)
	}
	shards := (ts.ColdRows + 99) / 100 // testTiers uses 100-row shards
	if want := int64(ts.ColdRows)*int64(tbl.Dim())*4 + int64(shards)*rowShardHeader; get("table.primary.cold") != want {
		t.Fatalf("cold mapping %d bytes, want %d", get("table.primary.cold"), want)
	}
}

// TestFootprintCountsEveryShardScratchSlice walks the shard struct by
// reflection: every field that is not one of the replica / queue structures
// the tree reports under their own leaves must be a scratch slice, and the
// "scratch" leaf must be exactly their capacities plus the table-level
// rank/frequency entries and norm-tracking buffers. A scratch slice added to shard without a line in
// Footprint fails here.
func TestFootprintCountsEveryShardScratchSlice(t *testing.T) {
	tbl, sets := readBenchFixture(t, 4000, 500, 4)
	dst := tensor.NewMatrix(500, 4)
	for w, feats := range sets { // grow rowOf and the key buffers
		tbl.Read(w, feats, dst, ReadOptions{Staleness: 100, InterCheck: true, Normalize: true})
	}
	accountedElsewhere := map[string]bool{
		"index": true, "feats": true, "vals": true, "pending": true, "pendCnt": true, "baseClock": true, // replicas.*
		"queues": true, "arena": true, // queues.*
	}
	want := int64(len(tbl.freqRank))*int64(unsafe.Sizeof(freqRank{})) + int64(len(tbl.stepNormShard))*8
	for _, row := range tbl.normScratch { // empty unless norm tracking is on
		want += int64(len(row)) * 4
	}
	for _, sh := range tbl.shards {
		v := reflect.ValueOf(sh).Elem()
		for i := 0; i < v.NumField(); i++ {
			name := v.Type().Field(i).Name
			if accountedElsewhere[name] {
				continue
			}
			f := v.Field(i)
			if f.Kind() != reflect.Slice {
				t.Fatalf("shard.%s is neither a scratch slice nor listed as accounted under another leaf", name)
			}
			if f.Cap() == 0 {
				t.Fatalf("shard.%s was not grown by the reads above; the test cannot see whether it is counted", name)
			}
			want += int64(f.Cap()) * int64(f.Type().Elem().Size())
		}
	}
	fp := tbl.Footprint()
	if err := fp.Validate(); err != nil {
		t.Fatal(err)
	}
	if n, ok := fp.Find("table.scratch"); !ok || n.Bytes != want {
		t.Fatalf("scratch leaf is %d bytes, the shards' scratch slices and the table-level buffers hold %d", n.Bytes, want)
	}
}

// TestSketchesNilWithoutRegistry pins the zero-cost-off discipline at the
// table level.
func TestSketchesNilWithoutRegistry(t *testing.T) {
	tab, _ := buildPlanShapedTable(t, 100, 4, 2, 0)
	if tab.ReadSketch() != nil || tab.UpdateSketch() != nil {
		t.Fatal("sketches allocated without a registry")
	}
}
