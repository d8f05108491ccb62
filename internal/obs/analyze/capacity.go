package analyze

import (
	"fmt"
	"sort"

	"hetgmp/internal/obs/memacct"
)

// CapacityStat is the additive `capacity` block of a RunReport: the
// measured memory footprint tree (internal/obs/memacct), the runtime
// hot-set evidence from the access-frequency sketches, and the
// read-coverage curve that parameterizes a tiered embedding store ("a hot
// cache of k rows covers z% of reads" — the empirical form of HET's cache
// claim, against paper §7.4's capacity arithmetic).
type CapacityStat struct {
	// Footprint is the measured component→bytes tree; MeasuredTotalBytes
	// duplicates its root so external gates can cross-check the tree's sum
	// independently of the JSON structure.
	Footprint          memacct.Footprint `json:"footprint"`
	MeasuredTotalBytes int64             `json:"measured_total_bytes"`
	// RowBytes is the size of one embedding row (Dim × 4), turning the
	// coverage curve's k (rows) into a cache size in bytes.
	RowBytes int64 `json:"row_bytes"`

	TotalReads   int64      `json:"total_reads"`
	TotalUpdates int64      `json:"total_updates"`
	Sketch       SketchInfo `json:"sketch"`

	// HotFeatures is the merged SpaceSaving top-K over reads, descending.
	HotFeatures []HotFeature `json:"hot_features,omitempty"`
	// Coverage is the read-coverage curve: Coverage[i] says the hottest K
	// rows served (at least) fraction Z of all embedding reads. Monotone
	// non-decreasing in K by construction.
	Coverage []CoveragePoint `json:"coverage,omitempty"`

	// ReplicatedFeatures counts the features the partitioner placed
	// secondary replicas for (its bigraph-predicted hot set); HotSetOverlap
	// is the fraction of the observed top hot features that prediction
	// covered.
	ReplicatedFeatures int     `json:"replicated_features"`
	HotSetOverlap      float64 `json:"hot_set_overlap"`

	// Tiers is the tiered embedding store's access ledger (nil for flat
	// storage): resident rows/bytes per tier, read and commit hits by tier,
	// and promotion/demotion totals (0 under static tiers). VerifyCapacity
	// cross-checks its byte columns against the footprint tree's
	// table.primary.{hot,warm,cold} nodes, so a tampered ledger cannot pass
	// the capacity gate.
	Tiers *TierStat `json:"tiers,omitempty"`
}

// TierStat mirrors embed.TierStats for the report JSON (analyze must not
// import embed; the engine converts at attach time).
type TierStat struct {
	HotRows   int   `json:"hot_rows"`
	WarmRows  int   `json:"warm_rows"`
	ColdRows  int   `json:"cold_rows"`
	HotBytes  int64 `json:"hot_bytes"`
	WarmBytes int64 `json:"warm_bytes"`
	ColdBytes int64 `json:"cold_bytes"`

	ReadHot    int64 `json:"read_hot"`
	ReadWarm   int64 `json:"read_warm"`
	ReadCold   int64 `json:"read_cold"`
	CommitHot  int64 `json:"commit_hot"`
	CommitWarm int64 `json:"commit_warm"`
	CommitCold int64 `json:"commit_cold"`

	Promotions int64 `json:"promotions"`
	Demotions  int64 `json:"demotions"`
}

// HotFeature is one entry of the observed hot set. Count is a SpaceSaving
// overestimate bounded by Err; Replicated says whether the partitioner
// predicted the feature hot (placed secondaries for it).
type HotFeature struct {
	Feature    int32 `json:"feature"`
	Count      int64 `json:"count"`
	Err        int64 `json:"err,omitempty"`
	Replicated bool  `json:"replicated,omitempty"`
}

// CoveragePoint is one point of the read-coverage curve.
type CoveragePoint struct {
	K        int     `json:"k"`
	Bytes    int64   `json:"bytes"`
	Coverage float64 `json:"coverage"`
}

// SketchInfo records the sketch dimensioning the hot-set numbers came from.
type SketchInfo struct {
	Eps     float64 `json:"eps"`
	Delta   float64 `json:"delta"`
	Width   int     `json:"width"`
	Depth   int     `json:"depth"`
	TopK    int     `json:"top_k"`
	Stripes int     `json:"stripes"`
}

// BuildCapacity assembles a CapacityStat from a measured footprint tree
// and the table's frequency sketches. replicated lists the features the
// partitioner placed secondaries for; rowBytes is Dim × 4.
func BuildCapacity(fp memacct.Footprint, rowBytes int64, reads, updates *memacct.FreqSketch, replicated []int32) *CapacityStat {
	if reads == nil {
		return nil
	}
	fp = fp.SortChildren()
	c := &CapacityStat{
		Footprint:          fp,
		MeasuredTotalBytes: fp.Bytes,
		RowBytes:           rowBytes,
		TotalReads:         reads.Total(),
		TotalUpdates:       updates.Total(),
		ReplicatedFeatures: len(replicated),
	}
	if cm := reads.CountMin(); cm != nil {
		c.Sketch = SketchInfo{
			Eps: cm.Eps(), Delta: cm.Delta(),
			Width: cm.Width(), Depth: cm.Depth(),
			TopK: reads.K(), Stripes: reads.Stripes(),
		}
	}
	repl := make(map[int32]bool, len(replicated))
	for _, x := range replicated {
		repl[x] = true
	}
	top := reads.TopK()
	for _, h := range top {
		c.HotFeatures = append(c.HotFeatures, HotFeature{
			Feature: h.Key, Count: h.Count, Err: h.Err, Replicated: repl[h.Key],
		})
	}
	// Hot-set overlap: of the observed top-R hot features (R capped by the
	// size of the predicted set), how many did the partitioner replicate?
	if r := min2(len(top), len(replicated)); r > 0 {
		hits := 0
		for _, h := range top[:r] {
			if repl[h.Key] {
				hits++
			}
		}
		c.HotSetOverlap = float64(hits) / float64(r)
	}
	c.Coverage = coverageCurve(top, c.TotalReads, rowBytes)
	return c
}

// coverageCurve turns the merged top-K into cumulative read coverage at
// k = 1, 2, 4, ... and the full K. SpaceSaving counts overestimate, so the
// cumulative share is clamped to 1.
func coverageCurve(top []memacct.HeavyHitter, total int64, rowBytes int64) []CoveragePoint {
	if total <= 0 || len(top) == 0 {
		return nil
	}
	var points []CoveragePoint
	var cum int64
	next := 1
	for i, h := range top {
		cum += h.Count
		k := i + 1
		if k == next || k == len(top) {
			cov := float64(cum) / float64(total)
			if cov > 1 {
				cov = 1
			}
			// The doubling grid can land on len(top) twice; keep one.
			if n := len(points); n > 0 && points[n-1].K == k {
				points[n-1].Coverage = cov
			} else {
				points = append(points, CoveragePoint{K: k, Bytes: int64(k) * rowBytes, Coverage: cov})
			}
			if k == next {
				next *= 2
			}
		}
	}
	return points
}

func min2(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// VerifyCapacity checks a capacity block's internal consistency: the
// footprint tree must validate (every node the sum of its children), its
// root must equal the duplicated total, the coverage curve must be
// monotone in both k and coverage, and the hot set must be sorted. This is
// the gate `hetgmp-obs capacity` and the CI capacity-smoke step run.
func VerifyCapacity(c *CapacityStat) error {
	if c == nil {
		return fmt.Errorf("capacity: block missing")
	}
	if err := c.Footprint.Validate(); err != nil {
		return fmt.Errorf("capacity: %v", err)
	}
	if c.Footprint.Bytes != c.MeasuredTotalBytes {
		return fmt.Errorf("capacity: footprint root reports %d bytes, measured_total_bytes says %d",
			c.Footprint.Bytes, c.MeasuredTotalBytes)
	}
	if sum := c.Footprint.LeafSum(); sum != c.MeasuredTotalBytes {
		return fmt.Errorf("capacity: footprint leaves sum to %d bytes, total says %d", sum, c.MeasuredTotalBytes)
	}
	if c.TotalReads < 0 || c.TotalUpdates < 0 {
		return fmt.Errorf("capacity: negative stream totals (%d reads, %d updates)", c.TotalReads, c.TotalUpdates)
	}
	if !sort.SliceIsSorted(c.HotFeatures, func(i, j int) bool {
		return c.HotFeatures[i].Count > c.HotFeatures[j].Count
	}) {
		return fmt.Errorf("capacity: hot features not sorted by descending count")
	}
	prevK, prevCov := 0, 0.0
	for _, p := range c.Coverage {
		if p.K <= prevK {
			return fmt.Errorf("capacity: coverage curve k not strictly increasing at k=%d", p.K)
		}
		if p.Coverage < prevCov || p.Coverage > 1 {
			return fmt.Errorf("capacity: coverage curve not monotone in [0,1] at k=%d (%.4f after %.4f)",
				p.K, p.Coverage, prevCov)
		}
		if p.Bytes != int64(p.K)*c.RowBytes {
			return fmt.Errorf("capacity: coverage point k=%d prices %d bytes, want k×row_bytes=%d",
				p.K, p.Bytes, int64(p.K)*c.RowBytes)
		}
		prevK, prevCov = p.K, p.Coverage
	}
	if c.HotSetOverlap < 0 || c.HotSetOverlap > 1 {
		return fmt.Errorf("capacity: hot-set overlap %.4f outside [0,1]", c.HotSetOverlap)
	}
	if c.Tiers != nil {
		if err := verifyTiers(c.Tiers, c.Footprint); err != nil {
			return err
		}
	}
	return nil
}

// verifyTiers checks the tier ledger against itself and against the
// footprint tree: every counter non-negative, demotions cannot exceed
// promotions (a row must be promoted before it can be evicted), promotions
// cannot exceed the misses that trigger them (both hold trivially for
// static tiers, whose totals are 0), and the ledger's byte columns must
// equal the measured table.primary.{hot,warm,cold} nodes — a
// hand-edited tiers block fails here even if it is internally plausible.
func verifyTiers(ts *TierStat, fp memacct.Footprint) error {
	for _, c := range []struct {
		name string
		v    int64
	}{
		{"hot_rows", int64(ts.HotRows)}, {"warm_rows", int64(ts.WarmRows)}, {"cold_rows", int64(ts.ColdRows)},
		{"hot_bytes", ts.HotBytes}, {"warm_bytes", ts.WarmBytes}, {"cold_bytes", ts.ColdBytes},
		{"read_hot", ts.ReadHot}, {"read_warm", ts.ReadWarm}, {"read_cold", ts.ReadCold},
		{"commit_hot", ts.CommitHot}, {"commit_warm", ts.CommitWarm}, {"commit_cold", ts.CommitCold},
		{"promotions", ts.Promotions}, {"demotions", ts.Demotions},
	} {
		if c.v < 0 {
			return fmt.Errorf("capacity: tiers.%s is negative (%d)", c.name, c.v)
		}
	}
	if ts.Demotions > ts.Promotions {
		return fmt.Errorf("capacity: tiers report %d demotions but only %d promotions",
			ts.Demotions, ts.Promotions)
	}
	if misses := ts.ReadWarm + ts.ReadCold + ts.CommitWarm + ts.CommitCold; ts.Promotions > misses {
		return fmt.Errorf("capacity: tiers report %d promotions but only %d cache misses",
			ts.Promotions, misses)
	}
	for _, col := range []struct {
		path  string
		bytes int64
	}{
		{"table.primary.hot", ts.HotBytes},
		{"table.primary.warm", ts.WarmBytes},
		{"table.primary.cold", ts.ColdBytes},
	} {
		n, ok := fp.Find("run." + col.path)
		if !ok {
			n, ok = fp.Find(col.path)
		}
		if !ok {
			return fmt.Errorf("capacity: tiers block present but footprint has no %s node", col.path)
		}
		if n.Bytes != col.bytes {
			return fmt.Errorf("capacity: tiers ledger says %s holds %d bytes, footprint measured %d",
				col.path, col.bytes, n.Bytes)
		}
	}
	return nil
}
