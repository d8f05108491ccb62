package embed

import (
	"unsafe"

	"hetgmp/internal/obs"
	"hetgmp/internal/obs/memacct"
)

// Footprint reports the table's measured memory layout as a named tree of
// component→bytes (see internal/obs/memacct). Every leaf is computed from
// the lengths/capacities of the table's own allocations, and none is an
// estimate, so the report reflects what this run actually holds — the
// measured counterpart of PlanCapacity's paper-§7.4 arithmetic. Queue and
// arena leaves use capacity, not length: they are reset-not-freed buffers
// whose capacity is the steady-state high-water mark.
//
// Footprint walks append-grown buffers, so call it only from
// single-threaded sections (construction, commit boundaries, post-run);
// the obs registry exports it through a snapshot-time collector for the
// same reason.
func (t *Table) Footprint() obs.Footprint {
	const (
		f32Bytes   = 4
		i32Bytes   = 4
		i64Bytes   = 8
		f64Bytes   = 8
		u64Bytes   = 8
		queueEntry = int64(unsafe.Sizeof(primaryUpdate{}))
		ownerEntry = int64(unsafe.Sizeof(OwnerTraffic{}))
		rankEntry  = int64(unsafe.Sizeof(freqRank{}))
	)

	var (
		replicaVals, replicaPend, replicaCnt, replicaClock int64
		replicaIdx, replicaFeats                           int64
		queueEntries, queueArena                           int64
		scratch                                            int64
	)
	for _, sh := range t.shards {
		replicaVals += int64(len(sh.vals.Data)) * f32Bytes
		replicaPend += int64(len(sh.pending.Data)) * f32Bytes
		replicaCnt += int64(len(sh.pendCnt)) * i32Bytes
		replicaClock += int64(len(sh.baseClock)) * i64Bytes
		replicaIdx += sh.index.Bytes()
		replicaFeats += int64(len(sh.feats)) * i32Bytes
		for _, q := range sh.queues {
			queueEntries += int64(cap(q)) * queueEntry
		}
		queueArena += int64(cap(sh.arena)) * f32Bytes
		scratch += int64(cap(sh.perOwner))*ownerEntry + int64(cap(sh.rowOf))*i32Bytes +
			int64(cap(sh.rankKeys))*u64Bytes
	}
	scratch += int64(len(t.freqRank)) * rankEntry
	scratch += int64(len(t.stepNormShard)) * f64Bytes
	for _, row := range t.normScratch {
		scratch += int64(len(row)) * f32Bytes
	}

	// The store contributes the value-storage children (one "values" leaf
	// flat; hot/warm/cold nodes tiered), the clocks leaf is the Table's own
	// either way — so the flat tree keeps the exact leaf paths older gates
	// reference, and the tiered tree stays Σ-children consistent.
	primaryChildren := append(t.store.footprint(),
		memacct.Leaf("clocks", int64(len(t.primaryClock))*i64Bytes))

	return memacct.Node("table",
		memacct.Node("primary", primaryChildren...),
		memacct.Node("replicas",
			memacct.Leaf("values", replicaVals),
			memacct.Leaf("pending", replicaPend),
			memacct.Leaf("pending_counts", replicaCnt),
			memacct.Leaf("clocks", replicaClock),
			memacct.Leaf("index", replicaIdx),
			memacct.Leaf("feature_ids", replicaFeats),
		),
		memacct.Node("queues",
			memacct.Leaf("entries", queueEntries),
			memacct.Leaf("arena", queueArena),
		),
		memacct.Leaf("scratch", scratch),
	)
}

// ReadSketch exposes the access-frequency sketch over feature reads, nil
// when the table runs without a registry (telemetry off = zero cost).
func (t *Table) ReadSketch() *memacct.FreqSketch {
	if t.met == nil {
		return nil
	}
	return t.met.reads
}

// UpdateSketch exposes the access-frequency sketch over feature updates,
// nil when the table runs without a registry.
func (t *Table) UpdateSketch() *memacct.FreqSketch {
	if t.met == nil {
		return nil
	}
	return t.met.updates
}
