// Package embed implements the distributed embedding table at the centre of
// HET-GMP (Sections 5.3 and 6): primary replicas sharded across workers by
// the partitioner, secondary replicas placed by the 2D vertex-cut, per-
// replica clocks, stale-gradient buffers, and the intra-/inter-embedding
// bounded-staleness protocol.
//
// The table is executed, not merely modelled: real float32 vectors are
// read, updated and synchronised, so convergence experiments measure real
// learning. Workers are simulated — they share one address space — and all
// communication the protocol *would* perform is reported to the caller as
// per-owner traffic counts, which the engine prices against the cluster
// fabric.
//
// # Execution discipline
//
// Training proceeds in iterations with two phases, mirroring the paper's
// "local reduction, then write to primaries without conflicts":
//
//  1. Read/compute phase (concurrent across workers): Read and Update may
//     be called for distinct workers in parallel. They mutate only that
//     worker's secondary shard and read primary state; every primary-side
//     effect is queued, bucketed by the touched feature's primary owner.
//  2. Commit phase: Commit drains the queues with one goroutine per
//     primary owner. Each feature has exactly one owner, so the owner
//     sweeps touch disjoint primary rows and clocks (the single-writer
//     invariant survives the parallelism), and each sweep applies a
//     feature's updates in deterministic (worker, queue-position) order —
//     the same per-feature order the serial drain used.
//
// This yields bit-reproducible runs regardless of GOMAXPROCS.
package embed

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"hetgmp/internal/idmap"
	"hetgmp/internal/invariant"
	"hetgmp/internal/obs"
	"hetgmp/internal/obs/memacct"
	"hetgmp/internal/optim"
	"hetgmp/internal/partition"
	"hetgmp/internal/radix"
	"hetgmp/internal/tensor"
	"hetgmp/internal/xrand"
)

// StalenessInf disables staleness-triggered synchronisation entirely (the
// paper's s = ∞ column in Table 2). Replicas then reconcile only at epoch
// boundaries via FlushAll.
const StalenessInf = int64(math.MaxInt64)

// Config parameterises a distributed embedding table.
type Config struct {
	NumFeatures int
	Dim         int
	// Assign supplies primary homes and secondary replica placement.
	Assign *partition.Assignment
	// Freq holds per-feature access frequencies (bigraph degrees) for the
	// clock normalisation of Section 5.3. Nil disables normalisation.
	Freq []int32
	// Optimizer applies gradients at primaries. Defaults to SGD(0.05).
	Optimizer optim.Sparse
	// LocalLR is the learning rate secondaries use when applying their own
	// gradients locally before write-back. Defaults to 0.05.
	LocalLR float32
	// InitScale bounds the uniform initialisation range. Defaults to 0.01.
	InitScale float32
	Seed      uint64
	// Check, when non-nil, enforces the table's runtime invariants (clock
	// monotonicity, replica bounds, the staleness bounds of Section 5.3)
	// on every Read/Update/Commit. Nil disables all checking at the cost
	// of one pointer comparison per site.
	Check *invariant.Checker
	// Obs, when non-nil, receives the table's metrics: staleness-gap
	// histograms at every Read admission (Section 5.3), protocol-outcome
	// counters, replica hit/miss counters, and snapshot-time clock gauges.
	// Nil disables all metrics at the cost of one pointer comparison.
	Obs *obs.Registry
	// Tiers selects the primary-row storage implementation (see tier.go).
	// The zero value keeps the flat matrix; an enabled config is
	// bit-identical to it at any GOMAXPROCS.
	Tiers TierConfig
}

// OwnerTraffic counts one worker's protocol traffic with one primary owner
// during a Read or Update call.
type OwnerTraffic struct {
	// SyncVecs is embedding vectors shipped owner→worker (stale-replica
	// refreshes and cache-miss remote reads).
	SyncVecs int
	// FlushVecs is gradient vectors shipped worker→owner (write-backs).
	FlushVecs int
	// MetaKeys is sparse indexes + clocks exchanged, in keys.
	MetaKeys int
}

// ReadStats reports what a Read did, for accounting and tests.
type ReadStats struct {
	LocalPrimary int // served by a local primary
	LocalFresh   int // served by a fresh-enough secondary
	SyncedIntra  int // secondaries refreshed by the intra-embedding check
	SyncedInter  int // secondaries refreshed by the inter-embedding check
	RemoteReads  int // no local replica: fetched from the remote primary
	PerOwner     []OwnerTraffic
}

// UpdateStats reports what an Update did.
type UpdateStats struct {
	LocalPrimary   int // gradient queued for a local primary
	LocalSecondary int // gradient absorbed into a secondary's pending buffer
	RemotePush     int // gradient queued straight to a remote primary
	FlushedPending int // pending buffers force-flushed by the write bound
	PerOwner       []OwnerTraffic
}

// Table is the distributed embedding table.
type Table struct {
	cfg    Config
	dim    int
	n      int // workers
	assign *partition.Assignment

	// store holds the primary rows behind the tiered row-access interface
	// (tier.go): the flat matrix by default, hot/warm/cold tiers when
	// Config.Tiers enables them.
	store        rowStore
	primaryClock []int64

	shards []*shard

	// freqRank holds each feature's access frequency and its rank in the
	// static (frequency descending, id ascending) order the normalised
	// inter-embedding check sweeps in and the tiered store lays rows out
	// in. Nil when Config.Freq is.
	freqRank []freqRank

	// check enforces runtime invariants when non-nil.
	check *invariant.Checker

	// met feeds the obs registry when non-nil.
	met *tableMetrics

	// Theorem-1 instrumentation (see TrackStepNorms). Norm accumulation is
	// sharded by primary owner so parallel owner sweeps never share a cell;
	// finishCommit folds the shards into stepNormSq in fixed owner order.
	trackNorms    bool
	stepNormSq    float64
	stepNormShard []float64
	normScratch   [][]float32 // one scratch row per owner sweep
}

// shard is one worker's secondary replica store plus its queued primary
// effects.
type shard struct {
	// index maps a secondary's feature id to its row. Replica sets are
	// fixed once the partition is, so it is built once, at load ≤ ½.
	index *idmap.Map
	feats []int32 // row → feature
	vals  *tensor.Matrix
	// pending accumulates gradients applied locally but not yet written
	// back — the paper's "stale gradients" buffer.
	pending   *tensor.Matrix
	pendCnt   []int32
	baseClock []int64 // primary clock captured at last synchronisation

	// queues holds the worker's queued primary effects bucketed by the
	// touched feature's primary owner, so the commit phase can drain each
	// owner's bucket with a dedicated goroutine without crossing another
	// sweep's rows.
	queues [][]primaryUpdate
	// arena backs the queued delta slices: deltas are carved from one
	// append-grown buffer that is reset (not freed) every commit, so the
	// steady-state queue→commit path allocates nothing.
	arena []float32

	// scratch reused by Read/Update. rowOf[i] is the secondary row Read
	// resolved feats[i] to, or -1 when the primary clock speaks for it (local
	// primary or remote miss); rankKeys is the inter-embedding check's two
	// sort buffers, one per half (see radix.SortRankKeys).
	perOwner []OwnerTraffic
	rowOf    []int32
	rankKeys []uint64
}

// resetQueues empties every owner bucket and the delta arena, retaining
// capacity.
func (sh *shard) resetQueues() {
	for o := range sh.queues {
		sh.queues[o] = sh.queues[o][:0]
	}
	sh.arena = sh.arena[:0]
}

type primaryUpdate struct {
	x     int32
	count int32
	delta []float32
}

// tableMetrics are the registry instruments the table feeds. All hot-path
// writes land on the calling worker's stripe.
type tableMetrics struct {
	// observedGap is the raw primary−replica clock gap seen at each
	// intra-embedding synchronisation point, before the protocol acts;
	// admittedGap is the gap the read actually served (0 after a refresh).
	// For a finite bound s, admittedGap's max must respect s — that is the
	// measurable form of the Section 5.3 guarantee.
	observedGap *obs.Histogram
	admittedGap *obs.Histogram

	readLocalPrimary *obs.Counter
	readLocalFresh   *obs.Counter
	readSyncedIntra  *obs.Counter
	readSyncedInter  *obs.Counter
	readRemote       *obs.Counter
	replicaHit       *obs.Counter
	replicaMiss      *obs.Counter

	updLocalPrimary   *obs.Counter
	updLocalSecondary *obs.Counter
	updRemotePush     *obs.Counter
	updFlushedPending *obs.Counter

	// Access-frequency sketches over the feature read/update streams
	// (capacity telemetry: which rows are actually hot). The Count-Min half
	// is atomic, the per-worker SpaceSaving half is striped like the
	// counters above — both safe under concurrent workers and live scrapes.
	reads   *memacct.FreqSketch
	updates *memacct.FreqSketch
}

// Sketch dimensioning: ε·M absolute error on point queries with failure
// probability δ (Count-Min), and a per-worker top-K summary wide enough
// that the merged view resolves the Zipf head the partitioner replicates.
const (
	sketchEps   = 5e-4
	sketchDelta = 1e-2
	sketchTopK  = 128
)

func newTableMetrics(reg *obs.Registry, t *Table) *tableMetrics {
	gapEdges := obs.PowerOfTwoEdges(30)
	m := &tableMetrics{
		observedGap: reg.Histogram("table.staleness.observed_gap", gapEdges),
		admittedGap: reg.Histogram("table.staleness.admitted_gap", gapEdges),

		readLocalPrimary: reg.Counter("table.read.local_primary"),
		readLocalFresh:   reg.Counter("table.read.local_fresh"),
		readSyncedIntra:  reg.Counter("table.read.synced_intra"),
		readSyncedInter:  reg.Counter("table.read.synced_inter"),
		readRemote:       reg.Counter("table.read.remote"),
		replicaHit:       reg.Counter("table.replica.hit"),
		replicaMiss:      reg.Counter("table.replica.miss"),

		updLocalPrimary:   reg.Counter("table.update.local_primary"),
		updLocalSecondary: reg.Counter("table.update.local_secondary"),
		updRemotePush:     reg.Counter("table.update.remote_push"),
		updFlushedPending: reg.Counter("table.update.flushed_pending"),

		reads:   memacct.NewFreqSketch(t.n, sketchTopK, sketchEps, sketchDelta),
		updates: memacct.NewFreqSketch(t.n, sketchTopK, sketchEps, sketchDelta),
	}
	// The construction-time footprint is immutable (every buffer that can
	// grow later is capacity-zero here), so the gauge is safe to serve from
	// live scrapes; the full tree — which walks append-grown queue buffers —
	// is exported by the snapshot-time collector below instead.
	staticBytes := float64(t.Footprint().Bytes)
	reg.RegisterLiveCollector(func(emit func(obs.Metric)) {
		emit(obs.Metric{Name: "table.mem.static_bytes", Type: "gauge", Gauge: staticBytes})
		emit(obs.Metric{Name: "table.hot.reads_total", Type: "gauge", Gauge: float64(m.reads.Total())})
		emit(obs.Metric{Name: "table.hot.updates_total", Type: "gauge", Gauge: float64(m.updates.Total())})
		if total := m.reads.Total(); total > 0 {
			var topCount int64
			for _, h := range m.reads.TopK() {
				topCount += h.Count
			}
			cov := float64(topCount) / float64(total)
			if cov > 1 {
				cov = 1 // SpaceSaving counts overestimate
			}
			emit(obs.Metric{Name: "table.hot.topk_read_coverage", Type: "gauge", Gauge: cov})
		}
	})
	reg.RegisterCollector(func(emit func(obs.Metric)) {
		obs.EmitFootprint(emit, "mem", t.Footprint())
	})
	// Clock-skew gauges are derived at snapshot time; Snapshot runs only in
	// single-threaded sections, so the unsynchronised scan is safe.
	reg.RegisterCollector(func(emit func(obs.Metric)) {
		var maxClock int64
		for _, c := range t.primaryClock {
			if c > maxClock {
				maxClock = c
			}
		}
		var rows int64
		var maxSkew int64
		for w := 0; w < t.n; w++ {
			sh := t.shards[w]
			rows += int64(len(sh.feats))
			for row, x := range sh.feats {
				if skew := t.primaryClock[x] - sh.baseClock[row]; skew > maxSkew {
					maxSkew = skew
				}
			}
		}
		emit(obs.Metric{Name: "table.clock.primary_max", Type: "gauge", Gauge: float64(maxClock)})
		emit(obs.Metric{Name: "table.clock.replica_skew_max", Type: "gauge", Gauge: float64(maxSkew)})
		emit(obs.Metric{Name: "table.replica.rows", Type: "gauge", Gauge: float64(rows)})
	})
	// Tier ledger gauges (tiered store only). The counters live on the
	// store's own stripes whether or not a registry is attached — this
	// collector only reads them at snapshot time, so attaching telemetry
	// cannot perturb the run (the no-observer-effect contract).
	reg.RegisterCollector(func(emit func(obs.Metric)) {
		ts := t.store.stats()
		if ts == nil {
			return
		}
		g := func(name string, v float64) {
			emit(obs.Metric{Name: name, Type: "gauge", Gauge: v})
		}
		g("table.tier.hot_rows", float64(ts.HotRows))
		g("table.tier.hot_bytes", float64(ts.HotBytes))
		g("table.tier.warm_bytes", float64(ts.WarmBytes))
		g("table.tier.cold_bytes", float64(ts.ColdBytes))
		g("table.tier.read_hot", float64(ts.ReadHot))
		g("table.tier.read_warm", float64(ts.ReadWarm))
		g("table.tier.read_cold", float64(ts.ReadCold))
		g("table.tier.commit_hot", float64(ts.CommitHot))
		g("table.tier.commit_warm", float64(ts.CommitWarm))
		g("table.tier.commit_cold", float64(ts.CommitCold))
		g("table.tier.read_hit_rate", ts.ReadHitRate())
	})
	return m
}

// NewTable builds the table: primary rows live once (logically sharded by
// Assign.PrimaryOf), and each worker's secondary rows are allocated from
// Assign's replica sets.
func NewTable(cfg Config) (*Table, error) {
	if cfg.NumFeatures <= 0 || cfg.Dim <= 0 {
		return nil, fmt.Errorf("embed: NumFeatures and Dim must be positive, got %d and %d",
			cfg.NumFeatures, cfg.Dim)
	}
	if cfg.Assign == nil {
		return nil, fmt.Errorf("embed: Config.Assign is required")
	}
	if len(cfg.Assign.PrimaryOf) != cfg.NumFeatures {
		return nil, fmt.Errorf("embed: assignment covers %d features, table has %d",
			len(cfg.Assign.PrimaryOf), cfg.NumFeatures)
	}
	if cfg.Freq != nil && len(cfg.Freq) != cfg.NumFeatures {
		return nil, fmt.Errorf("embed: Freq length %d, want %d", len(cfg.Freq), cfg.NumFeatures)
	}
	if cfg.Optimizer == nil {
		cfg.Optimizer = optim.NewSGD(0.05)
	}
	if cfg.LocalLR == 0 {
		cfg.LocalLR = 0.05
	}
	if cfg.InitScale == 0 {
		cfg.InitScale = 0.01
	}
	t := &Table{
		cfg:          cfg,
		dim:          cfg.Dim,
		n:            cfg.Assign.N,
		assign:       cfg.Assign,
		primaryClock: make([]int64, cfg.NumFeatures),
		check:        cfg.Check,
	}
	if cfg.Freq != nil {
		t.freqRank = buildFreqRanks(cfg.Freq)
	}
	if cfg.Tiers.Enabled() {
		store, err := newTieredStore(cfg.Tiers, t.freqRank, cfg.NumFeatures, cfg.Dim, cfg.Assign.N)
		if err != nil {
			return nil, err
		}
		t.store = store
	} else {
		t.store = newFlatStore(cfg.NumFeatures, cfg.Dim)
	}
	// Row-major per-row fill: the rng sequence is identical to the seed's
	// flat-matrix loop, whichever tier a row lands in.
	rng := xrand.New(cfg.Seed ^ 0xe8bede8bede8bede)
	for x := 0; x < cfg.NumFeatures; x++ {
		row := t.store.rowView(int32(x))
		for j := range row {
			row[j] = (2*rng.Float32() - 1) * cfg.InitScale
		}
	}
	t.shards = make([]*shard, t.n)
	for w := 0; w < t.n; w++ {
		feats := cfg.Assign.SecondariesOn(w)
		sh := &shard{
			index:     idmap.New(len(feats)),
			feats:     feats,
			vals:      tensor.NewMatrix(len(feats), cfg.Dim),
			pending:   tensor.NewMatrix(len(feats), cfg.Dim),
			pendCnt:   make([]int32, len(feats)),
			baseClock: make([]int64, len(feats)),
			queues:    make([][]primaryUpdate, t.n),
			perOwner:  make([]OwnerTraffic, t.n),
		}
		for row, x := range feats {
			sh.index.Insert(x, int32(row))
			copy(sh.vals.Row(row), t.store.rowView(x))
		}
		t.shards[w] = sh
	}
	if cfg.Obs != nil {
		t.met = newTableMetrics(cfg.Obs, t)
	}
	return t, nil
}

// Dim returns the embedding dimensionality.
func (t *Table) Dim() int { return t.dim }

// Workers returns the number of table shards.
func (t *Table) Workers() int { return t.n }

// PrimaryRow exposes the authoritative value of feature x. Evaluation code
// (AUC over the test set) reads through it; training code must use Read.
// The access is uncounted, so it is safe from any phase.
func (t *Table) PrimaryRow(x int32) []float32 { return t.store.rowView(x) }

// TierStats returns the tiered store's access ledger, nil when the table
// runs flat. Call from single-threaded sections.
func (t *Table) TierStats() *TierStats { return t.store.stats() }

// Close releases tier resources: cold spill shards are unmapped and, when
// the table created its own spill directory, deleted. A flat table's Close
// is a no-op. Idempotent.
func (t *Table) Close() error { return t.store.close() }

// primaryValues materialises the primary table row-major into one fresh
// slice, copying each row from whatever tier it lives in. Test helper.
func (t *Table) primaryValues() []float32 {
	out := make([]float32, t.cfg.NumFeatures*t.dim)
	for x := 0; x < t.cfg.NumFeatures; x++ {
		copy(out[x*t.dim:(x+1)*t.dim], t.store.rowView(int32(x)))
	}
	return out
}

// PrimaryClock returns the number of updates applied to x's primary.
func (t *Table) PrimaryClock(x int32) int64 { return t.primaryClock[x] }

// ReplicaClock returns worker w's replica clock for x — the primary clock
// it last synchronised at plus its own unflushed updates — and whether w
// holds a secondary of x at all.
func (t *Table) ReplicaClock(w int, x int32) (int64, bool) {
	sh := t.shards[w]
	row, ok := sh.index.Get(x)
	if !ok {
		return 0, false
	}
	return sh.baseClock[row] + int64(sh.pendCnt[row]), true
}

// SecondaryRow exposes worker w's local copy of x, if any. Intended for
// tests and diagnostics.
func (t *Table) SecondaryRow(w int, x int32) ([]float32, bool) {
	sh := t.shards[w]
	row, ok := sh.index.Get(x)
	if !ok {
		return nil, false
	}
	return sh.vals.Row(int(row)), true
}

// ReadOptions selects the consistency behaviour of one Read call.
type ReadOptions struct {
	// Staleness is the bound s. 0 forces synchronisation whenever the
	// primary has advanced at all; StalenessInf never synchronises.
	Staleness int64
	// InterCheck enables the inter-embedding synchronisation point.
	InterCheck bool
	// Normalize enables frequency normalisation of clocks in the inter
	// check (Section 5.3). Ignored when the table has no frequencies.
	Normalize bool
}

// Read gathers the embeddings of feats (which the caller must deduplicate —
// the "local reduction" of Section 6) into dst rows, running the bounded-
// staleness protocol from worker w's perspective. dst must have at least
// len(feats) rows of Dim columns.
func (t *Table) Read(w int, feats []int32, dst *tensor.Matrix, opt ReadOptions) ReadStats {
	if dst.Cols != t.dim || dst.Rows < len(feats) {
		panic(fmt.Sprintf("embed: Read dst is %dx%d, want at least %dx%d",
			dst.Rows, dst.Cols, len(feats), t.dim))
	}
	sh := t.shards[w]
	stats := ReadStats{PerOwner: sh.perOwner}
	for i := range sh.perOwner {
		sh.perOwner[i] = OwnerTraffic{}
	}
	if cap(sh.rowOf) < len(feats) {
		sh.rowOf = make([]int32, len(feats))
	}
	rowOf := sh.rowOf[:len(feats)]

	for i, x := range feats {
		owner := t.assign.PrimaryOf[x]
		if owner == w {
			copy(dst.Row(i), t.store.rowRead(w, x))
			stats.LocalPrimary++
			rowOf[i] = -1
			continue
		}
		row, ok := sh.index.Get(x)
		if !ok {
			// Cache miss: remote read of the primary. One key of metadata
			// up, one vector down.
			copy(dst.Row(i), t.store.rowRead(w, x))
			stats.RemoteReads++
			sh.perOwner[owner].MetaKeys++
			sh.perOwner[owner].SyncVecs++
			rowOf[i] = -1
			continue
		}
		rowOf[i] = row
		// Intra-embedding synchronisation point: the clock exchange is one
		// key of metadata per secondary per read regardless of outcome.
		sh.perOwner[owner].MetaKeys++
		gap := t.primaryClock[x] - sh.baseClock[row]
		admitted := gap
		if gap > opt.Staleness {
			t.syncSecondary(w, sh, x, row, owner)
			stats.SyncedIntra++
			admitted = 0 // the read serves the just-refreshed replica
		} else {
			stats.LocalFresh++
		}
		if m := t.met; m != nil {
			m.observedGap.Observe(w, gap)
			m.admittedGap.Observe(w, admitted)
		}
		copy(dst.Row(i), sh.vals.Row(int(row)))
	}

	if opt.InterCheck && opt.Staleness != StalenessInf {
		stats.SyncedInter = t.interCheck(w, sh, feats, rowOf, dst, opt)
	}
	if t.check != nil {
		t.verifyReadBound(w, sh, feats, rowOf, opt.Staleness)
	}
	if m := t.met; m != nil {
		for _, x := range feats {
			m.reads.Observe(w, x)
		}
		m.readLocalPrimary.Add(w, int64(stats.LocalPrimary))
		m.readLocalFresh.Add(w, int64(stats.LocalFresh))
		m.readSyncedIntra.Add(w, int64(stats.SyncedIntra))
		m.readSyncedInter.Add(w, int64(stats.SyncedInter))
		m.readRemote.Add(w, int64(stats.RemoteReads))
		m.replicaHit.Add(w, int64(stats.LocalFresh+stats.SyncedIntra))
		m.replicaMiss.Add(w, int64(stats.RemoteReads))
	}
	return stats
}

// verifyReadBound enforces the post-condition of the intra-embedding
// synchronisation point (Section 5.3): after the protocol ran, no secondary
// the worker holds for the read set lags its primary by more than s. The
// observed gap is also fed to the checker so tests can compare the maximum
// staleness different protocols actually exhibit (ASP ⊇ Bounded ⊇ BSP).
func (t *Table) verifyReadBound(w int, sh *shard, feats, rowOf []int32, s int64) {
	ck := t.check
	for i, x := range feats {
		row := rowOf[i]
		if row < 0 {
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

// interCheck enforces the inter-embedding synchronisation point over one
// read set, per Section 5.3: for a pair (x_i, x_j) with frequencies
// p_i ≥ p_j, the normalised clock gap |c_i·p_j/p_i − c_j| must stay within
// s. Equivalently, with ratios r = c/p, the pair's gap is
// min(p_i, p_j)·|r_i − r_j| — the lower frequency of the pair sets the
// scale, so a hot embedding's fast-moving clock does not spuriously mark
// its slow partners (or itself) stale.
//
// The check is evaluated in O(m): members are visited by frequency
// descending, and each element x is compared against the maximum ratio
// among partners at least as frequent — for those pairs min(p) = p_x
// exactly. The visiting order (frequency descending, feature id ascending)
// is a property of the table, not of the read set, so NewTable ranks every
// feature in it once (buildFreqRanks) and a Read only radix-sorts its
// members' ranks (radix.SortRankKeys). Pairs where the *stale* element is the
// more frequent one have gap p_partner·Δr ≤ s almost always (the partner's
// whole clock c_partner must exceed s); those replicas remain bounded by
// the intra-embedding check against their own primaries.
//
// rowOf is Read's per-position replica lookup, so the check never touches
// sh.index: a position's clock is replicaClock(sh, x, rowOf[i]).
func (t *Table) interCheck(w int, sh *shard, feats, rowOf []int32, dst *tensor.Matrix, opt ReadOptions) int {
	bound := float64(opt.Staleness)
	synced := 0
	if !opt.Normalize || t.freqRank == nil {
		// Raw clocks: every pair shares the unit, so the arg-max element
		// dominates all pairs and a single maximum suffices.
		rmax := math.Inf(-1)
		for i, x := range feats {
			if r := float64(t.replicaClock(sh, x, rowOf[i])); r > rmax {
				rmax = r
			}
		}
		for i, x := range feats {
			row := rowOf[i]
			if row < 0 {
				continue // a primary, local or just fetched, is never stale
			}
			if rmax-float64(t.replicaClock(sh, x, row)) > bound {
				synced += t.interSync(w, sh, x, row, dst.Row(i))
			}
			if t.check != nil {
				t.checkInterBound(w, sh, x, row, rmax-float64(t.replicaClock(sh, x, row)), opt.Staleness)
			}
		}
		return synced
	}

	// Normalised clocks: visit by frequency descending and keep a running
	// maximum of the ratios seen so far, so each element compares against
	// exactly the partners with p ≥ its own.
	m := len(feats)
	if cap(sh.rankKeys) < 2*m {
		sh.rankKeys = make([]uint64, 2*m)
	}
	keys := sh.rankKeys[:m]
	for i, x := range feats {
		keys[i] = uint64(t.freqRank[x].rank)<<32 | uint64(i)
	}
	keys = radix.SortRankKeys(keys, sh.rankKeys[m:2*m], uint32(len(t.freqRank)-1))
	prefixMax := math.Inf(-1)
	for _, k := range keys {
		i := int(uint32(k))
		x, row := feats[i], rowOf[i]
		p := float64(t.freqRank[x].freq)
		r := float64(t.replicaClock(sh, x, row)) / p
		gap := (prefixMax - r) * p // min(p) = p_x for partners so far
		if r > prefixMax {
			prefixMax = r
		}
		if row < 0 {
			continue
		}
		if gap > bound {
			synced += t.interSync(w, sh, x, row, dst.Row(i))
		}
		if t.check != nil {
			r = float64(t.replicaClock(sh, x, row)) / p
			t.checkInterBound(w, sh, x, row, (prefixMax-r)*p, opt.Staleness)
		}
	}
	return synced
}

// replicaClock is the clock Read position (x, row) carries into the
// inter-embedding check: the secondary's clock (ReplicaClock) when Read
// served one, the primary's when row is -1.
func (t *Table) replicaClock(sh *shard, x, row int32) int64 {
	if row < 0 {
		return t.primaryClock[x]
	}
	return sh.baseClock[row] + int64(sh.pendCnt[row])
}

// interSync acts on one inter-embedding violation: the secondary is
// refreshed if its primary has advanced at all, and the read's output row
// is re-served from it. It returns the number of refreshes (0 or 1).
func (t *Table) interSync(w int, sh *shard, x, row int32, out []float32) int {
	n := 0
	if t.primaryClock[x] > sh.baseClock[row] {
		t.syncSecondary(w, sh, x, row, t.assign.PrimaryOf[x])
		n = 1
	}
	copy(out, sh.vals.Row(int(row)))
	return n
}

// checkInterBound enforces the post-condition of one inter-embedding
// synchronisation decision (Section 5.3): after the decision, the pair's
// (possibly frequency-normalised) clock gap is within the bound, or the
// replica is already as fresh as its primary so there was nothing left to
// synchronise. gap is recomputed from post-decision clocks by the caller.
func (t *Table) checkInterBound(w int, sh *shard, x int32, row int32, gap float64, s int64) {
	ck := t.check
	ck.Passed(invariant.InterStaleness)
	if gap <= float64(s) || sh.baseClock[row] >= t.primaryClock[x] {
		return
	}
	ck.Fail(&invariant.Violation{
		Rule: invariant.InterStaleness, Component: "embed.Table",
		Worker: w, Feature: x,
		Primary: t.primaryClock[x], Replica: sh.baseClock[row], Bound: s,
		Detail: fmt.Sprintf("inter-embedding gap %.3f exceeds bound after synchronisation pass", gap),
	})
}

// syncSecondary reconciles worker w's replica of x with its primary: the
// pending gradient is queued for the primary (write-back), the replica
// takes the current primary value with the pending gradient re-applied
// locally so the worker's own progress is not lost, and the base clock
// advances to the primary clock plus the in-flight flush.
func (t *Table) syncSecondary(w int, sh *shard, x int32, row int32, owner int) {
	if sh.pendCnt[row] > 0 {
		t.queueUpdate(sh, owner, x, sh.pendCnt[row], sh.pending.Row(int(row)))
		sh.perOwner[owner].FlushVecs++
	}
	val := sh.vals.Row(int(row))
	copy(val, t.store.rowRead(w, x))
	if sh.pendCnt[row] > 0 {
		pend := sh.pending.Row(int(row))
		tensor.Axpy(-t.cfg.LocalLR, pend, val)
		for i := range pend {
			pend[i] = 0
		}
	}
	sh.baseClock[row] = t.primaryClock[x] + int64(sh.pendCnt[row])
	sh.pendCnt[row] = 0
	sh.perOwner[owner].SyncVecs++
}

// Update applies the mini-batch gradients grads (row i is the gradient of
// feats[i]; the caller pre-reduces duplicates) from worker w.
//
//   - Local primaries: the gradient is queued and applied at Commit.
//   - Secondaries: the gradient is applied to the local copy immediately
//     and absorbed into the pending buffer; the buffer is force-flushed
//     when it holds more than writeBound updates (pass the staleness bound
//     s; StalenessInf defers all flushing to synchronisation points).
//   - No local replica: the gradient is queued directly to the remote
//     primary, costing a write-back transfer.
func (t *Table) Update(w int, feats []int32, grads *tensor.Matrix, writeBound int64) UpdateStats {
	sh := t.shards[w]
	stats := UpdateStats{PerOwner: sh.perOwner}
	for i := range sh.perOwner {
		sh.perOwner[i] = OwnerTraffic{}
	}
	for i, x := range feats {
		g := grads.Row(i)
		owner := t.assign.PrimaryOf[x]
		if owner == w {
			t.queueUpdate(sh, owner, x, 1, g)
			stats.LocalPrimary++
			continue
		}
		row, ok := sh.index.Get(x)
		if !ok {
			t.queueUpdate(sh, owner, x, 1, g)
			stats.RemotePush++
			sh.perOwner[owner].FlushVecs++
			sh.perOwner[owner].MetaKeys++
			continue
		}
		// Secondary: local apply + pending accumulation. val −= LocalLR·g
		// is Axpy with −LocalLR: x − a·g and x + (−a)·g round alike.
		pend := sh.pending.Row(int(row))
		tensor.Axpy(-t.cfg.LocalLR, g, sh.vals.Row(int(row)))
		tensor.Add(g, pend)
		sh.pendCnt[row]++
		stats.LocalSecondary++
		if writeBound != StalenessInf && int64(sh.pendCnt[row]) > writeBound {
			t.queueUpdate(sh, owner, x, sh.pendCnt[row], pend)
			sh.perOwner[owner].FlushVecs++
			sh.perOwner[owner].MetaKeys++
			for j := range pend {
				pend[j] = 0
			}
			sh.baseClock[row] += int64(sh.pendCnt[row])
			sh.pendCnt[row] = 0
			stats.FlushedPending++
		}
		if ck := t.check; ck != nil {
			// Write-side staleness: a secondary may run at most writeBound
			// updates ahead of its last write-back (Section 5.3).
			ck.Passed(invariant.ReplicaBound)
			if writeBound != StalenessInf && int64(sh.pendCnt[row]) > writeBound {
				ck.Fail(&invariant.Violation{
					Rule: invariant.ReplicaBound, Component: "embed.Table",
					Worker: w, Feature: x,
					Primary: t.primaryClock[x], Replica: sh.baseClock[row], Bound: writeBound,
					Detail: fmt.Sprintf("pending buffer holds %d updates past the write bound", sh.pendCnt[row]),
				})
			}
		}
	}
	if m := t.met; m != nil {
		for _, x := range feats {
			m.updates.Observe(w, x)
		}
		m.updLocalPrimary.Add(w, int64(stats.LocalPrimary))
		m.updLocalSecondary.Add(w, int64(stats.LocalSecondary))
		m.updRemotePush.Add(w, int64(stats.RemotePush))
		m.updFlushedPending.Add(w, int64(stats.FlushedPending))
	}
	return stats
}

// QueuePrimary queues a gradient for feature x's primary on behalf of
// worker w, bypassing the replica machinery. The parameter-server baselines
// use it: every update goes straight to the (host-resident) primary.
func (t *Table) QueuePrimary(w int, x int32, grad []float32) {
	t.queueUpdate(t.shards[w], t.assign.PrimaryOf[x], x, 1, grad)
}

// queueUpdate buckets one primary effect for feature x (owned by owner)
// into sh's owner queues. The delta copy is carved from the shard's arena,
// so the steady-state queue→commit path allocates nothing.
func (t *Table) queueUpdate(sh *shard, owner int, x int32, count int32, grad []float32) {
	n := len(sh.arena)
	if n+t.dim <= cap(sh.arena) {
		sh.arena = sh.arena[:n+t.dim]
	} else {
		sh.arena = append(sh.arena, make([]float32, t.dim)...)
	}
	delta := sh.arena[n : n+t.dim : n+t.dim]
	copy(delta, grad)
	sh.queues[owner] = append(sh.queues[owner], primaryUpdate{x: x, count: count, delta: delta})
}

// commitSpawnThreshold is the queued-update count below which Commit keeps
// the serial drain: spawning owner sweeps for a handful of updates costs
// more than the parallelism recovers.
const commitSpawnThreshold = 256

// Commit applies every queued primary update and advances primary clocks.
// It must be called with no concurrent Read/Update in flight.
//
// The drain runs one goroutine per primary owner (see the package comment):
// each feature has exactly one owner, so the owner sweeps write disjoint
// primary rows and clocks, and each sweep applies a feature's updates in
// the same (worker ascending, queue-position ascending) order the serial
// drain uses — the result is bit-identical at any parallelism.
func (t *Table) Commit() {
	if par := t.commitParallelism(); par > 1 && t.queuedUpdates() >= commitSpawnThreshold {
		t.commitParallel(par)
	} else {
		for o := 0; o < t.n; o++ {
			t.commitOwner(o)
		}
	}
	t.finishCommit()
}

// commitParallelism resolves the owner-sweep goroutine count: GOMAXPROCS,
// capped at the worker count.
func (t *Table) commitParallelism() int {
	par := runtime.GOMAXPROCS(0)
	if par > t.n {
		par = t.n
	}
	return par
}

// queuedUpdates counts the updates pending across all shards and owners.
func (t *Table) queuedUpdates() int {
	total := 0
	for _, sh := range t.shards {
		for _, q := range sh.queues {
			total += len(q)
		}
	}
	return total
}

// commitOwner drains owner o's bucket of every worker's queue in worker
// order. It is the single writer of o's primary rows and clocks during the
// commit phase; the only cross-owner state it touches is its own slot of
// stepNormShard and the (atomic) invariant checker.
func (t *Table) commitOwner(o int) {
	ck := t.check
	var scratch []float32
	var normSq float64
	if t.trackNorms {
		scratch = t.normScratch[o]
	}
	for w := 0; w < t.n; w++ {
		for _, u := range t.shards[w].queues[o] {
			row := t.store.rowCommit(o, u.x)
			if t.trackNorms {
				copy(scratch, row)
			}
			t.cfg.Optimizer.Apply(u.x, row, u.delta)
			if t.trackNorms {
				var s float64
				for i, v := range row {
					d := float64(v - scratch[i])
					s += d * d
				}
				normSq += s
			}
			before := t.primaryClock[u.x]
			t.primaryClock[u.x] += int64(u.count)
			if ck != nil {
				ck.Passed(invariant.ClockMonotonic)
				if before < 0 || u.count <= 0 || t.primaryClock[u.x] <= before {
					ck.Fail(&invariant.Violation{
						Rule: invariant.ClockMonotonic, Component: "embed.Table",
						Worker: w, Feature: u.x,
						Primary: t.primaryClock[u.x], Replica: before, Bound: int64(u.count),
						Detail: "primary clock must be non-negative and strictly advance per committed update",
					})
				}
			}
		}
	}
	if t.trackNorms {
		t.stepNormShard[o] += normSq
	}
}

// commitParallel runs the owner sweeps on par goroutines striding the owner
// space. A sweep that panics (an invariant checker in panic mode, say) is
// re-raised on the calling goroutine after every sweep has finished, so the
// failure surfaces deterministically instead of crashing the process from a
// worker goroutine.
func (t *Table) commitParallel(par int) {
	var wg sync.WaitGroup
	panics := make([]any, par)
	for g := 0; g < par; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			defer func() { panics[g] = recover() }()
			for o := g; o < t.n; o += par {
				t.commitOwner(o)
			}
		}(g)
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
}

// finishCommit resets every queue and arena for the next window, folds the
// per-owner norm partials into stepNormSq in fixed owner order (so tracked
// norms are deterministic at any commit parallelism), and runs the
// commit-point invariant pass.
func (t *Table) finishCommit() {
	for _, sh := range t.shards {
		sh.resetQueues()
	}
	if t.trackNorms {
		for o := range t.stepNormShard {
			t.stepNormSq += t.stepNormShard[o]
			t.stepNormShard[o] = 0
		}
	}
	if t.check != nil {
		t.VerifyCommitted()
	}
}

// VerifyCommitted enforces the commit-point invariants against the whole
// table: every queue is drained, every clock is non-negative, and no
// secondary's base clock runs ahead of its primary (replicaClock ≤
// primaryClock + its own pending updates, Section 5.3). Commit calls it
// automatically when checking is on; tests may call it directly. It is a
// no-op on a table without a checker.
func (t *Table) VerifyCommitted() {
	ck := t.check
	if ck == nil {
		return
	}
	for w := 0; w < t.n; w++ {
		sh := t.shards[w]
		queued := 0
		for _, q := range sh.queues {
			queued += len(q)
		}
		if queued != 0 {
			ck.Fail(&invariant.Violation{
				Rule: invariant.CommitDiscipline, Component: "embed.Table",
				Worker: w, Feature: -1,
				Detail: fmt.Sprintf("commit left %d queued primary updates", queued),
			})
		}
		for row, x := range sh.feats {
			base, pend := sh.baseClock[row], sh.pendCnt[row]
			if base >= 0 && pend >= 0 && base <= t.primaryClock[x] {
				continue
			}
			ck.Fail(&invariant.Violation{
				Rule: invariant.ReplicaBound, Component: "embed.Table",
				Worker: w, Feature: x,
				Primary: t.primaryClock[x], Replica: base, Bound: int64(pend),
				Detail: "replica base clock must stay within [0, primaryClock] at commit points",
			})
		}
		ck.Passed(invariant.CommitDiscipline)
		ck.Passed(invariant.ReplicaBound)
	}
}

// TrackStepNorms enables accumulation of ‖x(t+1) − x(t)‖² across commits,
// the quantity of the paper's Theorem 1 (Section 5.4).
func (t *Table) TrackStepNorms(on bool) {
	t.trackNorms = on
	if on && t.normScratch == nil {
		t.stepNormShard = make([]float64, t.n)
		t.normScratch = make([][]float32, t.n)
		for o := range t.normScratch {
			t.normScratch[o] = make([]float32, t.dim)
		}
	}
}

// TakeStepNormSq returns the squared global-model movement accumulated
// since the last call and resets the accumulator.
func (t *Table) TakeStepNormSq() float64 {
	s := t.stepNormSq
	t.stepNormSq = 0
	return s
}

// MaxReplicaDeviation returns the largest Euclidean distance between any
// secondary replica and its primary — the ‖x(t) − x_i(t)‖ inconsistency
// term of Theorem 1. It scans every replica; call it at sampling points,
// not per iteration.
func (t *Table) MaxReplicaDeviation() float64 {
	var worst float64
	for w := 0; w < t.n; w++ {
		sh := t.shards[w]
		for row, x := range sh.feats {
			prim := t.store.rowView(x)
			sec := sh.vals.Row(row)
			var s float64
			for i := range prim {
				d := float64(sec[i] - prim[i])
				s += d * d
			}
			if s > worst {
				worst = s
			}
		}
	}
	return math.Sqrt(worst)
}

// FlushAll force-flushes every worker's pending buffers into the primary
// queue and resynchronises the replicas. The engine calls it at epoch
// boundaries so even s = ∞ runs reconcile eventually. It returns per-worker
// per-owner traffic.
//
// It is composed from FlushWorkerPending / Commit / ResyncReplicas so the
// distributed engine can interleave the same steps with a queue exchange
// between ranks (flush own worker, ship the queued updates, inject peers',
// then commit and resync) and land on the identical final state.
func (t *Table) FlushAll() [][]OwnerTraffic {
	out := make([][]OwnerTraffic, t.n)
	for w := 0; w < t.n; w++ {
		out[w] = t.FlushWorkerPending(w)
	}
	t.Commit()
	t.ResyncReplicas(out)
	return out
}

// FlushWorkerPending moves worker w's pending buffers into its primary
// queues (to be applied by the next Commit) and returns the per-owner
// flush traffic.
func (t *Table) FlushWorkerPending(w int) []OwnerTraffic {
	sh := t.shards[w]
	traffic := make([]OwnerTraffic, t.n)
	for row, x := range sh.feats {
		if sh.pendCnt[row] == 0 {
			continue
		}
		owner := t.assign.PrimaryOf[x]
		t.queueUpdate(sh, owner, x, sh.pendCnt[row], sh.pending.Row(row))
		traffic[owner].FlushVecs++
		traffic[owner].MetaKeys++
		pend := sh.pending.Row(row)
		for j := range pend {
			pend[j] = 0
		}
		sh.baseClock[row] += int64(sh.pendCnt[row])
		sh.pendCnt[row] = 0
	}
	return traffic
}

// ResyncReplicas refreshes every secondary to the committed primaries and
// aligns base clocks. When out is non-nil it accumulates the per-worker
// per-owner sync traffic (out[w] must hold t.Workers() entries).
func (t *Table) ResyncReplicas(out [][]OwnerTraffic) {
	for w := 0; w < t.n; w++ {
		sh := t.shards[w]
		for row, x := range sh.feats {
			copy(sh.vals.Row(row), t.store.rowView(x))
			sh.baseClock[row] = t.primaryClock[x]
			if out != nil {
				out[w][t.assign.PrimaryOf[x]].SyncVecs++
			}
		}
	}
}

// BytesPerVector returns the wire size of one embedding vector.
func (t *Table) BytesPerVector() int64 { return int64(t.dim) * 4 }

// BytesPerKey returns the wire size of one sparse index + clock pair.
const BytesPerKey = 16
