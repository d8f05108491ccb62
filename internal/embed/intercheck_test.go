package embed

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"hetgmp/internal/invariant"
	"hetgmp/internal/optim"
	"hetgmp/internal/partition"
	"hetgmp/internal/tensor"
	"hetgmp/internal/xrand"
)

// sortOracle is the Read this package shipped before the inter-embedding
// check went sort-free: a sort.Slice over the read set with a closure
// comparator on float64 frequencies, and a ratio closure that looks every
// feature up in sh.index again. It is kept word for word (its own frequency
// copy and order scratch stand in for the Table fields that are gone) as
// the oracle TestInterCheckMatchesSortOracle drives the live Read against.
type sortOracle struct {
	t          *Table
	freq       []float64 // nil iff Config.Freq is
	interOrder [][]int32 // per worker
}

func newSortOracle(t *Table) *sortOracle {
	o := &sortOracle{t: t, interOrder: make([][]int32, t.n)}
	if t.cfg.Freq != nil {
		o.freq = make([]float64, t.cfg.NumFeatures)
		for x, f := range t.cfg.Freq {
			if f < 1 {
				f = 1
			}
			o.freq[x] = float64(f)
		}
	}
	return o
}

func (o *sortOracle) read(w int, feats []int32, dst *tensor.Matrix, opt ReadOptions) ReadStats {
	t := o.t
	sh := t.shards[w]
	stats := ReadStats{PerOwner: sh.perOwner}
	for i := range sh.perOwner {
		sh.perOwner[i] = OwnerTraffic{}
	}

	for i, x := range feats {
		owner := t.assign.PrimaryOf[x]
		if owner == w {
			copy(dst.Row(i), t.store.rowRead(w, x))
			stats.LocalPrimary++
			continue
		}
		row, ok := sh.index.Get(x)
		if !ok {
			copy(dst.Row(i), t.store.rowRead(w, x))
			stats.RemoteReads++
			sh.perOwner[owner].MetaKeys++
			sh.perOwner[owner].SyncVecs++
			continue
		}
		sh.perOwner[owner].MetaKeys++
		gap := t.primaryClock[x] - sh.baseClock[row]
		if gap > opt.Staleness {
			t.syncSecondary(w, sh, x, row, owner)
			stats.SyncedIntra++
		} else {
			stats.LocalFresh++
		}
		copy(dst.Row(i), sh.vals.Row(int(row)))
	}

	if opt.InterCheck && opt.Staleness != StalenessInf {
		stats.SyncedInter = o.interCheck(w, sh, feats, dst, opt)
	}
	if t.check != nil {
		o.verifyReadBound(w, sh, feats, opt.Staleness)
	}
	return stats
}

func (o *sortOracle) verifyReadBound(w int, sh *shard, feats []int32, s int64) {
	t := o.t
	ck := t.check
	for _, x := range feats {
		row, ok := sh.index.Get(x)
		if !ok || t.assign.PrimaryOf[x] == w {
			continue
		}
		gap := t.primaryClock[x] - sh.baseClock[row]
		ck.Observe(invariant.IntraStaleness, gap)
		ck.Passed(invariant.IntraStaleness)
		if s != StalenessInf && gap > s {
			ck.Fail(&invariant.Violation{
				Rule: invariant.IntraStaleness, Component: "embed.Table",
				Worker: w, Feature: x,
				Primary: t.primaryClock[x], Replica: sh.baseClock[row], Bound: s,
				Detail: fmt.Sprintf("post-Read intra-embedding gap %d exceeds bound", gap),
			})
		}
	}
}

func (o *sortOracle) interCheck(w int, sh *shard, feats []int32, dst *tensor.Matrix, opt ReadOptions) int {
	t := o.t
	ratio := func(x int32) float64 {
		c, ok := t.ReplicaClock(w, x)
		if !ok || t.assign.PrimaryOf[x] == w {
			c = t.primaryClock[x]
		}
		if opt.Normalize && o.freq != nil {
			return float64(c) / o.freq[x]
		}
		return float64(c)
	}

	if !opt.Normalize || o.freq == nil {
		rmax := math.Inf(-1)
		for _, x := range feats {
			if r := ratio(x); r > rmax {
				rmax = r
			}
		}
		synced := 0
		for i, x := range feats {
			owner := t.assign.PrimaryOf[x]
			if owner == w {
				continue
			}
			row, ok := sh.index.Get(x)
			if !ok {
				continue
			}
			if rmax-ratio(x) > float64(opt.Staleness) {
				if t.primaryClock[x] > sh.baseClock[row] {
					t.syncSecondary(w, sh, x, row, owner)
					synced++
				}
				copy(dst.Row(i), sh.vals.Row(int(row)))
			}
			if t.check != nil {
				t.checkInterBound(w, sh, x, row, rmax-ratio(x), opt.Staleness)
			}
		}
		return synced
	}

	if cap(o.interOrder[w]) < len(feats) {
		o.interOrder[w] = make([]int32, len(feats))
	}
	order := o.interOrder[w][:len(feats)]
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool {
		fa, fb := o.freq[feats[order[a]]], o.freq[feats[order[b]]]
		if fa != fb {
			return fa > fb
		}
		return feats[order[a]] < feats[order[b]]
	})
	synced := 0
	prefixMax := math.Inf(-1)
	for _, oi := range order {
		x := feats[oi]
		r := ratio(x)
		gap := (prefixMax - r) * o.freq[x]
		if r > prefixMax {
			prefixMax = r
		}
		owner := t.assign.PrimaryOf[x]
		if owner == w {
			continue
		}
		row, ok := sh.index.Get(x)
		if !ok {
			continue
		}
		if gap > float64(opt.Staleness) {
			if t.primaryClock[x] > sh.baseClock[row] {
				t.syncSecondary(w, sh, x, row, owner)
				synced++
			}
			copy(dst.Row(int(oi)), sh.vals.Row(int(row)))
		}
		if t.check != nil {
			t.checkInterBound(w, sh, x, row, (prefixMax-ratio(x))*o.freq[x], opt.Staleness)
		}
	}
	return synced
}

// interFixture is one seeded random table shape for the oracle test.
type interFixture struct {
	workers, features, dim int
	assign                 *partition.Assignment
	freq                   []int32
}

// newInterFixture draws primaries uniformly and replicates roughly a third
// of the features on a random subset of the other workers, so every read
// mixes local primaries, secondaries and remote misses. freqMode picks the
// frequency profile.
func newInterFixture(seed uint64, freqMode string) interFixture {
	r := xrand.New(seed)
	f := interFixture{workers: 2 + r.Intn(4), features: 150 + r.Intn(250), dim: 1 + r.Intn(5)}
	f.assign = partition.NewAssignment(f.workers, 1, f.features)
	f.assign.SampleOf[0] = 0
	for x := 0; x < f.features; x++ {
		f.assign.PrimaryOf[x] = r.Intn(f.workers)
		if r.Intn(3) == 0 {
			for w := 0; w < f.workers; w++ {
				if r.Intn(2) == 0 {
					f.assign.AddReplica(int32(x), w) // a no-op on the primary's worker
				}
			}
		}
	}
	if freqMode == "none" {
		return f
	}
	f.freq = make([]int32, f.features)
	zipf := xrand.NewZipf(40, 1.1)
	for x := range f.freq {
		switch freqMode {
		case "zipf": // 40 distinct values over hundreds of features: many ties
			f.freq[x] = int32(1 + 1000/(1+zipf.Sample(r)))
		case "wide": // values across all three radix digits of an int32
			f.freq[x] = int32(math.MaxInt32 >> (8 * uint(r.Intn(4))))
		case "equal":
			f.freq[x] = 7
		case "clamped": // -1, 0 and 1 all mean 1; 2 and 3 do not
			f.freq[x] = int32(r.Intn(5)) - 1
		}
	}
	return f
}

func (f interFixture) table(t *testing.T, ck *invariant.Checker) *Table {
	t.Helper()
	tbl, err := NewTable(Config{
		NumFeatures: f.features, Dim: f.dim, Assign: f.assign, Freq: f.freq,
		Optimizer: optim.NewSGD(0.1), LocalLR: 0.1, Seed: 5, Check: ck,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// sameShards fails unless the two tables' replica clocks, pending counts,
// replica values and queued primary updates (entry by entry, in order)
// are identical.
func sameShards(t *testing.T, where string, got, want *Table) {
	t.Helper()
	for w := range want.shards {
		g, s := got.shards[w], want.shards[w]
		if !slices.Equal(g.baseClock, s.baseClock) || !slices.Equal(g.pendCnt, s.pendCnt) {
			t.Fatalf("%s: worker %d replica clocks diverge", where, w)
		}
		if !slices.Equal(g.vals.Data, s.vals.Data) || !slices.Equal(g.pending.Data, s.pending.Data) {
			t.Fatalf("%s: worker %d replica values diverge", where, w)
		}
		for o := range s.queues {
			if len(g.queues[o]) != len(s.queues[o]) {
				t.Fatalf("%s: worker %d queues %d updates for owner %d, oracle %d",
					where, w, len(g.queues[o]), o, len(s.queues[o]))
			}
			for k, u := range s.queues[o] {
				gu := g.queues[o][k]
				if gu.x != u.x || gu.count != u.count || !slices.Equal(gu.delta, u.delta) {
					t.Fatalf("%s: worker %d owner %d queue entry %d: %+v, oracle %+v", where, w, o, k, gu, u)
				}
			}
		}
	}
}

// TestInterCheckMatchesSortOracle is the bit-identity gate of the sort-free
// inter-embedding check: twin tables are driven through the same seeded
// schedule of Read / Update / Commit, one through Table.Read and one
// through the retired sort.Slice implementation, and must agree after
// every call on ReadStats (PerOwner included), the gathered rows, replica
// clocks and values, the queued updates in order, and the invariant
// checker's counts (the checker re-evaluates every decision through rowOf).
func TestInterCheckMatchesSortOracle(t *testing.T) {
	for _, freqMode := range []string{"zipf", "wide", "equal", "clamped", "none"} {
		for _, s := range []int64{0, 1, 100} {
			for _, normalize := range []bool{true, false} {
				for _, checked := range []bool{false, true} {
					name := fmt.Sprintf("%s/s=%d/normalize=%v/check=%v", freqMode, s, normalize, checked)
					t.Run(name, func(t *testing.T) {
						for seed := uint64(1); seed <= 3; seed++ {
							driveAgainstOracle(t, newInterFixture(seed, freqMode), seed, s, normalize, checked)
						}
					})
				}
			}
		}
	}
}

// readCounts is ReadStats without its slice, so that it compares with ==.
func readCounts(s ReadStats) [5]int {
	return [5]int{s.LocalPrimary, s.LocalFresh, s.SyncedIntra, s.SyncedInter, s.RemoteReads}
}

func driveAgainstOracle(t *testing.T, f interFixture, seed uint64, s int64, normalize, checked bool) {
	var ckLive, ckOracle *invariant.Checker
	if checked {
		ckLive, ckOracle = invariant.New(), invariant.New()
	}
	live, twin := f.table(t, ckLive), f.table(t, ckOracle)
	oracle := newSortOracle(twin)

	if f.freq != nil {
		// The static ranks must be the comparator's total order.
		ids := make([]int32, f.features)
		for x := range ids {
			ids[x] = int32(x)
		}
		sort.Slice(ids, func(a, b int) bool {
			fa, fb := oracle.freq[ids[a]], oracle.freq[ids[b]]
			if fa != fb {
				return fa > fb
			}
			return ids[a] < ids[b]
		})
		for rank, x := range ids {
			if e := live.freqRank[x]; int(e.rank) != rank || float64(e.freq) != oracle.freq[x] {
				t.Fatalf("feature %d: entry %+v, comparator puts it at %d with frequency %v", x, e, rank, oracle.freq[x])
			}
		}
	}

	r := xrand.New(seed ^ 0xfeed)
	opt := ReadOptions{Staleness: s, InterCheck: true, Normalize: normalize}
	dstLive := tensor.NewMatrix(f.features, f.dim)
	dstOracle := tensor.NewMatrix(f.features, f.dim)
	grads := tensor.NewMatrix(f.features, f.dim)
	for round := 0; round < 12; round++ {
		for w := 0; w < f.workers; w++ {
			// Read sets run from a few features up to most of the table,
			// already deduplicated, in random order.
			m := 1 + r.Intn(8)
			if r.Intn(3) > 0 {
				m = 32 + r.Intn(f.features-32)
			}
			feats := r.Perm32(f.features)[:m]
			where := fmt.Sprintf("seed %d round %d worker %d (m=%d)", seed, round, w, m)

			got := live.Read(w, feats, dstLive, opt)
			want := oracle.read(w, feats, dstOracle, opt)
			if readCounts(got) != readCounts(want) || !slices.Equal(got.PerOwner, want.PerOwner) {
				t.Fatalf("%s: Read stats %+v, oracle %+v", where, got, want)
			}
			if !slices.Equal(dstLive.Data[:m*f.dim], dstOracle.Data[:m*f.dim]) {
				t.Fatalf("%s: gathered rows differ from the oracle's", where)
			}
			sameShards(t, where+" after Read", live, twin)

			// Interleaved updates move replica clocks (pending counts) and,
			// after the commit below, primary clocks at uneven rates.
			upd := feats[:1+r.Intn(m)]
			for i := range grads.Data[:len(upd)*f.dim] {
				grads.Data[i] = 2*r.Float32() - 1
			}
			live.Update(w, upd, grads, s)
			twin.Update(w, upd, grads, s)
		}
		if r.Intn(4) > 0 {
			live.Commit()
			twin.Commit()
		}
	}
	live.FlushAll()
	twin.FlushAll()
	sameShards(t, "after FlushAll", live, twin)
	if !slices.Equal(live.primaryValues(), twin.primaryValues()) || !slices.Equal(live.primaryClock, twin.primaryClock) {
		t.Fatal("primaries diverge from the oracle's")
	}
	if checked {
		got, want := ckLive.Counts(), ckOracle.Counts()
		if got.Checks == 0 || got.Violations != 0 || got != want {
			t.Fatalf("checker counts %v, oracle %v", got, want)
		}
	}
}

// readBenchFixture is the embed-bound benchmark workload's table in
// miniature: features striped over 8 workers, the hottest tenth replicated
// everywhere, Zipf-tied frequencies, and one deduplicated read set per
// worker.
func readBenchFixture(tb testing.TB, features, m, dim int) (*Table, [][]int32) {
	tb.Helper()
	const workers = 8
	r := xrand.New(31)
	a := partition.NewAssignment(workers, 1, features)
	a.SampleOf[0] = 0
	freq := make([]int32, features)
	zipf := xrand.NewZipf(features, 1.05)
	for i := 0; i < 20*features; i++ {
		freq[zipf.Sample(r)]++
	}
	for x := 0; x < features; x++ {
		a.PrimaryOf[x] = x % workers
		if x < features/10 {
			for w := 0; w < workers; w++ {
				if w != a.PrimaryOf[x] {
					a.AddReplica(int32(x), w)
				}
			}
		}
	}
	tbl, err := NewTable(Config{NumFeatures: features, Dim: dim, Assign: a, Freq: freq, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	sets := make([][]int32, workers)
	for w := range sets {
		seen := make(map[int32]bool, m)
		for len(sets[w]) < m {
			if x := int32(zipf.Sample(r)); !seen[x] {
				seen[x] = true
				sets[w] = append(sets[w], x)
			}
		}
	}
	return tbl, sets
}

// TestReadInterCheckAllocationFree pins that a steady-state Read under the
// HET-GMP protocol (inter check on normalised clocks) allocates nothing:
// rowOf and the key buffers are per-shard scratch grown once.
func TestReadInterCheckAllocationFree(t *testing.T) {
	tbl, sets := readBenchFixture(t, 4000, 500, 4)
	dst := tensor.NewMatrix(500, 4)
	opt := ReadOptions{Staleness: 100, InterCheck: true, Normalize: true}
	tbl.Read(0, sets[0], dst, opt) // grows the scratch
	if allocs := testing.AllocsPerRun(20, func() { tbl.Read(0, sets[0], dst, opt) }); allocs != 0 {
		t.Fatalf("steady-state Read allocates %v times per call, want 0", allocs)
	}
}

// BenchmarkTableRead is the number behind the benchmark ledger's
// embed.read_ns_per_row, at the embed-bound workload's shape: 47k features,
// ≈2300 unique features per worker per iteration, dim 4. Between reads the
// workers update and commit, so clocks move and the protocol has
// refreshes to do, as in training.
func BenchmarkTableRead(b *testing.B) {
	const (
		features = 47000
		m        = 2300
		dim      = 4
	)
	for _, bc := range []struct {
		name string
		opt  ReadOptions
	}{
		{"intra", ReadOptions{Staleness: 100}},
		{"inter-normalized", ReadOptions{Staleness: 100, InterCheck: true, Normalize: true}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			tbl, sets := readBenchFixture(b, features, m, dim)
			dst := tensor.NewMatrix(m, dim)
			grads := tensor.NewMatrix(m, dim)
			for i := range grads.Data {
				grads.Data[i] = 0.01
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for w, feats := range sets {
					tbl.Read(w, feats, dst, bc.opt)
				}
				b.StopTimer()
				for w, feats := range sets {
					tbl.Update(w, feats, grads, bc.opt.Staleness)
				}
				tbl.Commit()
				b.StartTimer()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(sets)*m), "ns/row")
		})
	}
}
