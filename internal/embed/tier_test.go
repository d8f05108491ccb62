package embed

import (
	"bytes"
	"math"
	"os"
	"runtime"
	"sort"
	"testing"

	"hetgmp/internal/optim"
	"hetgmp/internal/partition"
	"hetgmp/internal/xrand"
)

// tierFixture is commitFixture's tiered twin: same 8 workers × 512 features
// shape, with a hot budget of 64 rows (12.5% of the table — within the
// acceptance bar's ≤25%) and the 256 least-accessed rows spilled cold
// across several small shards.
func tierFixture(t *testing.T, tiers TierConfig) *Table {
	return tierFixtureFreq(t, tiers, nil)
}

// tierFixtureFreq is tierFixture with access frequencies, which fix the
// tiered store's row order.
func tierFixtureFreq(t *testing.T, tiers TierConfig, freq []int32) *Table {
	t.Helper()
	const (
		workers  = 8
		features = 512
		dim      = 8
	)
	a := partition.NewAssignment(workers, 1, features)
	a.SampleOf[0] = 0
	for x := 0; x < features; x++ {
		a.PrimaryOf[x] = x % workers
		if x%4 == 0 {
			for p := 0; p < workers; p++ {
				a.AddReplica(int32(x), p)
			}
		}
	}
	tbl, err := NewTable(Config{
		NumFeatures: features, Dim: dim, Assign: a, Freq: freq,
		Optimizer: optim.NewSGD(0.05), LocalLR: 0.1, Seed: 21,
		Tiers: tiers,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tbl.Close() })
	return tbl
}

func testTiers() TierConfig {
	return TierConfig{HotRows: 64, ColdRows: 256, ColdShardRows: 100}
}

// randomFreq draws n access frequencies from [0, top], so ties are common
// and zeros exercise the clamp to 1.
func randomFreq(seed uint64, n int, top int) []int32 {
	r := xrand.New(seed)
	freq := make([]int32, n)
	for x := range freq {
		freq[x] = int32(r.Intn(top + 1))
	}
	return freq
}

// TestTieredBitIdenticalToFlat is the storage-level oracle: the same
// workload through the tiered store and the flat store must leave
// bit-identical primary values, clocks, and checkpoint bytes — at
// GOMAXPROCS 1, 4 and 8, in id order and in a frequency-ranked order —
// while the tiered run actually exercises all three tiers with a hot
// budget several times smaller than the table.
func TestTieredBitIdenticalToFlat(t *testing.T) {
	for _, freq := range [][]int32{nil, randomFreq(5, 512, 40)} {
		flat := tierFixtureFreq(t, TierConfig{}, freq)
		driveCommitWorkload(flat, 4)
		want := snapshotCommit(flat)
		var wantCkpt bytes.Buffer
		if _, err := flat.WriteTo(&wantCkpt); err != nil {
			t.Fatal(err)
		}

		for _, procs := range []int{1, 4, 8} {
			old := runtime.GOMAXPROCS(procs)
			tiered := tierFixtureFreq(t, testTiers(), freq)
			driveCommitWorkload(tiered, 4)
			runtime.GOMAXPROCS(old)

			got := snapshotCommit(tiered)
			for i := range want.primary {
				if got.primary[i] != want.primary[i] {
					t.Fatalf("GOMAXPROCS=%d: primary[%d] = %v, flat %v", procs, i, got.primary[i], want.primary[i])
				}
			}
			for x := range want.clocks {
				if got.clocks[x] != want.clocks[x] {
					t.Fatalf("GOMAXPROCS=%d: clock[%d] = %d, flat %d", procs, x, got.clocks[x], want.clocks[x])
				}
			}
			var ckpt bytes.Buffer
			if _, err := tiered.WriteTo(&ckpt); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ckpt.Bytes(), wantCkpt.Bytes()) {
				t.Fatalf("GOMAXPROCS=%d: tiered checkpoint differs from flat", procs)
			}

			ts := tiered.TierStats()
			if ts == nil {
				t.Fatal("tiered table reports no tier stats")
			}
			if ts.ReadHot == 0 || ts.ReadWarm == 0 || ts.ReadCold == 0 {
				t.Fatalf("workload did not exercise every tier on reads: %+v", ts)
			}
			if ts.CommitHot+ts.CommitWarm+ts.CommitCold == 0 {
				t.Fatalf("no commit-path accesses recorded: %+v", ts)
			}
			if ts.Promotions != 0 || ts.Demotions != 0 {
				t.Fatalf("static tiers moved rows: %+v", ts)
			}
			// The acceptance shape: total value footprint ≥ 4× the hot budget.
			if total := ts.HotBytes + ts.WarmBytes + ts.ColdBytes; total < 4*ts.HotBytes {
				t.Fatalf("footprint %d not ≥ 4× hot budget %d", total, ts.HotBytes)
			}
		}
	}
}

// TestTieredLayoutIsRankOrder pins the static placement: feature x lives at
// position rank(x) of the (frequency descending, id ascending) order — id
// order when Freq is nil — so the hot tier is exactly the HotRows most
// accessed features and the cold tier the ColdRows least accessed; and
// every counted access lands on the counter of the tier holding its row.
func TestTieredLayoutIsRankOrder(t *testing.T) {
	const features = 512
	equal := make([]int32, features)
	for x := range equal {
		equal[x] = 7
	}
	cases := []struct {
		name string
		freq []int32
	}{
		{"nil", nil},
		{"all-equal", equal},
		{"random-ties", randomFreq(11, features, 6)},
		{"random-wide", randomFreq(12, features, 1<<20)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tiers := testTiers()
			tbl := tierFixtureFreq(t, tiers, c.freq)
			s := tbl.store.(*tieredStore)

			// Reference order, independent of buildFreqRanks: a stable sort
			// by clamped frequency descending over ascending ids.
			order := make([]int32, features)
			for x := range order {
				order[x] = int32(x)
			}
			if c.freq != nil {
				clamped := func(x int32) int32 { return max(c.freq[x], 1) }
				sort.SliceStable(order, func(i, j int) bool { return clamped(order[i]) > clamped(order[j]) })
			}

			var want [3]int64 // expected hot, warm, cold counts
			for p, x := range order {
				if &tbl.PrimaryRow(x)[0] != &s.row(p)[0] {
					t.Fatalf("feature %d is not stored at position %d", x, p)
				}
				tier := 1
				switch {
				case p < tiers.HotRows:
					tier = 0
				case p >= features-tiers.ColdRows:
					tier = 2
				}
				// Feature x is read x%3+1 times and committed once, so
				// each tier's expected count depends on which rows it holds.
				for k := 0; k <= int(x)%3; k++ {
					s.rowRead(int(x)%len(s.readStripes), x)
				}
				s.rowCommit(int(x)%len(s.commitStripes), x)
				want[tier] += int64(x)%3 + 1
			}
			ts := tbl.TierStats()
			if got := [3]int64{ts.ReadHot, ts.ReadWarm, ts.ReadCold}; got != want {
				t.Fatalf("read counters %v, want %v", got, want)
			}
			commits := [3]int64{int64(tiers.HotRows), int64(features - tiers.HotRows - tiers.ColdRows), int64(tiers.ColdRows)}
			if got := [3]int64{ts.CommitHot, ts.CommitWarm, ts.CommitCold}; got != commits {
				t.Fatalf("commit counters %v, want %v", got, commits)
			}
		})
	}
}

// TestTieredConfigValidation pins newTieredStore's bounds: hot and cold are
// disjoint rank ranges, so negative sizes and HotRows+ColdRows beyond the
// table are errors, not silently clamped.
func TestTieredConfigValidation(t *testing.T) {
	const features = 100
	cases := []struct {
		name      string
		hot, cold int
		ok        bool
	}{
		{"exact fit", 40, 60, true},
		{"all hot", features, 0, true},
		{"no warm or cold", 1, 0, true},
		{"hot over by one", 41, 60, false},
		{"hot beyond table", features + 1, 0, false},
		{"cold beyond table", 1, features + 1, false},
		{"negative hot", -1, 10, false},
		{"negative cold", 10, -1, false},
		{"sum overflows int", math.MaxInt, 1, false},
		{"cold overflows int", 1, math.MaxInt, false},
	}
	for _, c := range cases {
		s, err := newTieredStore(TierConfig{HotRows: c.hot, ColdRows: c.cold}, nil, features, 4, 2)
		if (err == nil) != c.ok {
			t.Errorf("%s: HotRows %d ColdRows %d: err = %v, want ok=%v", c.name, c.hot, c.cold, err, c.ok)
		}
		if s != nil {
			s.close()
		}
	}
}

// TestTieredStoresEachRowOnce pins that the tiers partition the table: the
// hot and warm heap plus the cold spill payload is exactly F·dim·4 bytes,
// with nothing on top but the cold shards' headers.
func TestTieredStoresEachRowOnce(t *testing.T) {
	for _, tiers := range []TierConfig{
		testTiers(),
		{HotRows: 64},
		{HotRows: 64, ColdRows: 448, ColdShardRows: 100},
		{HotRows: 512},
	} {
		tbl := tierFixture(t, tiers)
		ts := tbl.TierStats()
		f := int64(tbl.cfg.NumFeatures)
		if int64(ts.HotRows+ts.WarmRows+ts.ColdRows) != f {
			t.Fatalf("%+v: tiers hold %d+%d+%d rows of %d", tiers, ts.HotRows, ts.WarmRows, ts.ColdRows, f)
		}
		shards := int64(0)
		if tiers.ColdRows > 0 {
			shards = int64((tiers.ColdRows + tiers.ColdShardRows - 1) / tiers.ColdShardRows)
		}
		if got, want := ts.HotBytes+ts.WarmBytes+ts.ColdBytes-shards*rowShardHeader, f*int64(tbl.Dim())*4; got != want {
			t.Fatalf("%+v: tiers store %d value bytes, table has %d", tiers, got, want)
		}
	}
}

// TestTieredCheckpointInterchange proves checkpoints cross the tier
// boundary: a tiered table's bytes restore into a flat table and vice
// versa, landing on identical state.
func TestTieredCheckpointInterchange(t *testing.T) {
	tiered := tierFixture(t, testTiers())
	driveCommitWorkload(tiered, 2)
	var ckpt bytes.Buffer
	if _, err := tiered.WriteTo(&ckpt); err != nil {
		t.Fatal(err)
	}

	flat := tierFixture(t, TierConfig{})
	if _, err := flat.ReadFrom(bytes.NewReader(ckpt.Bytes())); err != nil {
		t.Fatal(err)
	}
	fv, tv := flat.primaryValues(), tiered.primaryValues()
	for i := range fv {
		if fv[i] != tv[i] {
			t.Fatalf("flat restore diverges at %d: %v vs %v", i, fv[i], tv[i])
		}
	}

	restored := tierFixture(t, testTiers())
	if _, err := restored.ReadFrom(bytes.NewReader(ckpt.Bytes())); err != nil {
		t.Fatal(err)
	}
	rv := restored.primaryValues()
	for i := range rv {
		if rv[i] != tv[i] {
			t.Fatalf("tiered restore diverges at %d: %v vs %v", i, rv[i], tv[i])
		}
	}
}

// TestTieredCloseRemovesSpill pins the spill lifecycle: a table that
// created its own temp directory removes it on Close, and Close is
// idempotent.
func TestTieredCloseRemovesSpill(t *testing.T) {
	tbl := tierFixture(t, testTiers())
	s := tbl.store.(*tieredStore)
	dir := s.cold.dir
	if _, err := os.Stat(dir); err != nil {
		t.Fatalf("spill dir missing before close: %v", err)
	}
	if err := tbl.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("spill dir still present after close (err=%v)", err)
	}
	if err := tbl.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

// TestTieredColdDirKept pins the opposite arm: a caller-supplied spill
// directory survives Close (the caller owns it).
func TestTieredColdDirKept(t *testing.T) {
	dir := t.TempDir()
	tiers := testTiers()
	tiers.ColdDir = dir
	tbl := tierFixture(t, tiers)
	if err := tbl.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); err != nil {
		t.Fatalf("caller-owned spill dir removed: %v", err)
	}
}

func TestRecommendHotRows(t *testing.T) {
	curve := []CoverageSample{
		{K: 1, Coverage: 0.20},
		{K: 4, Coverage: 0.45},
		{K: 16, Coverage: 0.80},
		{K: 64, Coverage: 0.95},
	}
	cases := []struct {
		target float64
		want   int
	}{
		{0.5, 16},
		{0.8, 16},
		{0.9, 64},
		{0.99, 64}, // unreachable: the curve's best
		{0.1, 1},
		{0, 0},
	}
	for _, c := range cases {
		if got := RecommendHotRows(curve, c.target); got != c.want {
			t.Errorf("RecommendHotRows(target=%g) = %d, want %d", c.target, got, c.want)
		}
	}
	if got := RecommendHotRows(nil, 0.5); got != 0 {
		t.Errorf("empty curve returned %d", got)
	}
}
