package embed

import (
	"fmt"

	"hetgmp/internal/obs/memacct"
	"hetgmp/internal/tensor"
)

// Tiered row storage (the HET cache claim made executable): the primary
// table's rows live behind one row-access interface in three tiers instead
// of one flat matrix. Rows are stored in access-rank order — feature x at
// position rank(x), its place in the static (frequency descending, id
// ascending) order NewTable computes from Config.Freq, or x itself when Freq
// is nil — and each tier is one range of positions:
//
//	hot   [0, HotRows)                         heap
//	warm  [HotRows, NumFeatures−ColdRows)      heap, the same slice
//	cold  [NumFeatures−ColdRows, NumFeatures)  file-backed spill shards
//
// This is the paper's static placement of the Zipf head by access count:
// the hottest rows share a few contiguous pages, and no row is ever stored
// twice.
//
// # Determinism
//
// Determinism holds by construction: tier membership is fixed by NewTable
// and never changes, so an access only locates its row and bumps the
// serving tier's counter on the caller's stripe (worker for reads, owner
// for commits). A row holds the same float32 values wherever it lives, so
// a tiered run is bit-identical to the flat table at any GOMAXPROCS.

// TierConfig selects the Table's row-storage implementation. The zero
// value keeps the flat matrix.
type TierConfig struct {
	// HotRows is how many of the most frequently accessed features form
	// the hot tier. 0 disables tiering. Sized explicitly, or from a run's
	// own read-coverage curve via RecommendHotRows (hetgmp-obs capacity).
	HotRows int
	// ColdRows is how many of the least frequently accessed features spill
	// to the file-backed cold tier; the remaining
	// NumFeatures−HotRows−ColdRows rows form the warm tier. HotRows+ColdRows
	// must not exceed NumFeatures.
	ColdRows int
	// ColdDir is where cold spill shards live. Empty means a fresh temp
	// directory, removed by Table.Close.
	ColdDir string
	// ColdShardRows is the rows per cold shard file (default 8192).
	ColdShardRows int
}

// Enabled reports whether the config asks for the tiered store.
func (c TierConfig) Enabled() bool { return c.HotRows > 0 }

// TierStats is the tiered store's access ledger: per-tier row and byte
// sizing and hit counters by access path. Nil on a flat table.
type TierStats struct {
	HotRows  int `json:"hot_rows"`
	WarmRows int `json:"warm_rows"`
	ColdRows int `json:"cold_rows"`

	HotBytes  int64 `json:"hot_bytes"`
	WarmBytes int64 `json:"warm_bytes"`
	ColdBytes int64 `json:"cold_bytes"`

	// Read* count primary-row accesses during the concurrent read phase by
	// the tier that served them; Commit* count owner-sweep accesses.
	ReadHot    int64 `json:"read_hot"`
	ReadWarm   int64 `json:"read_warm"`
	ReadCold   int64 `json:"read_cold"`
	CommitHot  int64 `json:"commit_hot"`
	CommitWarm int64 `json:"commit_warm"`
	CommitCold int64 `json:"commit_cold"`

	// Promotions and Demotions are always 0: tier membership is static.
	// They remain only because the benchmark's per-layer ledger reads
	// them; a change to that ledger may drop them.
	Promotions int64 `json:"promotions"`
	Demotions  int64 `json:"demotions"`
}

// ReadHitRate is the fraction of read-phase primary accesses served hot.
func (s *TierStats) ReadHitRate() float64 {
	total := s.ReadHot + s.ReadWarm + s.ReadCold
	if total == 0 {
		return 0
	}
	return float64(s.ReadHot) / float64(total)
}

// CommitHitRate is the fraction of commit-sweep accesses served hot.
func (s *TierStats) CommitHitRate() float64 {
	total := s.CommitHot + s.CommitWarm + s.CommitCold
	if total == 0 {
		return 0
	}
	return float64(s.CommitHot) / float64(total)
}

// rowStore is the row-access interface the Table's storage sits behind.
// rowRead and rowCommit serve during the two concurrent phases and count
// the access on the caller's stripe; rowView is the untracked access for
// single-threaded sections (init, checkpoint, resync, evaluation,
// diagnostics) and for the read phase's side lookups that were already
// counted.
type rowStore interface {
	rowRead(w int, x int32) []float32
	rowCommit(o int, x int32) []float32
	rowView(x int32) []float32
	// stats returns the tier ledger, nil for the flat store.
	stats() *TierStats
	// footprint returns this store's children of the footprint tree's
	// "primary" node (the clocks leaf is the Table's own).
	footprint() []memacct.Footprint
	close() error
}

// flatStore is the seed layout: every row in one matrix. It is the flat
// arm of the tier bit-identity oracle.
type flatStore struct {
	m *tensor.Matrix
}

func newFlatStore(rows, dim int) *flatStore { return &flatStore{m: tensor.NewMatrix(rows, dim)} }

func (s *flatStore) rowRead(w int, x int32) []float32   { return s.m.Row(int(x)) }
func (s *flatStore) rowCommit(o int, x int32) []float32 { return s.m.Row(int(x)) }
func (s *flatStore) rowView(x int32) []float32          { return s.m.Row(int(x)) }
func (s *flatStore) stats() *TierStats                  { return nil }
func (s *flatStore) close() error                       { return nil }

func (s *flatStore) footprint() []memacct.Footprint {
	return []memacct.Footprint{memacct.Leaf("values", int64(len(s.m.Data))*4)}
}

// defaultColdShardRows is the cold tier's rows-per-shard-file default.
const defaultColdShardRows = 8192

// tierStripe is one worker's (or owner's) private lane of per-tier serve
// counters, padded so concurrent lanes never share a cache line.
type tierStripe struct {
	hot, warm, cold int64
	_               [40]byte
}

// tieredStore implements rowStore as rank-ordered hot/warm heap rows over
// cold spill shards.
type tieredStore struct {
	dim      int
	rows     int
	hotRows  int
	heapRows int // positions [0, heapRows) are heap-backed; the rest cold

	// rank is the Table's frequency ranking, shared: feature x lives at
	// position rank[x].rank. Nil means position x.
	rank []freqRank
	heap []float32  // hot then warm rows, position-major
	cold *coldStore // nil when ColdRows is 0

	readStripes   []tierStripe // by worker
	commitStripes []tierStripe // by owner
}

func newTieredStore(cfg TierConfig, rank []freqRank, rows, dim, workers int) (*tieredStore, error) {
	if cfg.HotRows < 0 || cfg.ColdRows < 0 || cfg.ColdRows > rows || cfg.HotRows > rows-cfg.ColdRows {
		return nil, fmt.Errorf("embed: TierConfig HotRows %d + ColdRows %d must be non-negative and fit %d features",
			cfg.HotRows, cfg.ColdRows, rows)
	}
	perShard := cfg.ColdShardRows
	if perShard <= 0 {
		perShard = defaultColdShardRows
	}
	heapRows := rows - cfg.ColdRows
	s := &tieredStore{
		dim:           dim,
		rows:          rows,
		hotRows:       cfg.HotRows,
		heapRows:      heapRows,
		rank:          rank,
		heap:          make([]float32, heapRows*dim),
		readStripes:   make([]tierStripe, workers),
		commitStripes: make([]tierStripe, workers),
	}
	if cfg.ColdRows > 0 {
		cold, err := newColdStore(cfg.ColdDir, cfg.ColdRows, dim, perShard)
		if err != nil {
			return nil, err
		}
		s.cold = cold
	}
	return s, nil
}

// pos returns feature x's storage position.
func (s *tieredStore) pos(x int32) int {
	if s.rank == nil {
		return int(x)
	}
	return int(s.rank[x].rank)
}

// row returns the storage at position p.
func (s *tieredStore) row(p int) []float32 {
	if p >= s.heapRows {
		return s.cold.row(p - s.heapRows)
	}
	off := p * s.dim
	return s.heap[off : off+s.dim : off+s.dim]
}

// serve locates x and bumps the stripe's counter for the tier holding it.
func (s *tieredStore) serve(st *tierStripe, x int32) []float32 {
	p := s.pos(x)
	switch {
	case p < s.hotRows:
		st.hot++
	case p < s.heapRows:
		st.warm++
	default:
		st.cold++
	}
	return s.row(p)
}

func (s *tieredStore) rowRead(w int, x int32) []float32 {
	return s.serve(&s.readStripes[w], x)
}

func (s *tieredStore) rowCommit(o int, x int32) []float32 {
	return s.serve(&s.commitStripes[o], x)
}

func (s *tieredStore) rowView(x int32) []float32 { return s.row(s.pos(x)) }

func (s *tieredStore) hotBytes() int64 { return int64(s.hotRows*s.dim) * 4 }

func (s *tieredStore) warmBytes() int64 { return int64(len(s.heap))*4 - s.hotBytes() }

func (s *tieredStore) coldBytes() int64 {
	if s.cold == nil {
		return 0
	}
	return s.cold.bytes()
}

func (s *tieredStore) stats() *TierStats {
	ts := &TierStats{
		HotRows:   s.hotRows,
		WarmRows:  s.heapRows - s.hotRows,
		ColdRows:  s.rows - s.heapRows,
		HotBytes:  s.hotBytes(),
		WarmBytes: s.warmBytes(),
		ColdBytes: s.coldBytes(),
	}
	for i := range s.readStripes {
		ts.ReadHot += s.readStripes[i].hot
		ts.ReadWarm += s.readStripes[i].warm
		ts.ReadCold += s.readStripes[i].cold
		ts.CommitHot += s.commitStripes[i].hot
		ts.CommitWarm += s.commitStripes[i].warm
		ts.CommitCold += s.commitStripes[i].cold
	}
	return ts
}

// footprint reports the three tiers; the rank array is the Table's own
// (counted under its scratch leaf).
func (s *tieredStore) footprint() []memacct.Footprint {
	return []memacct.Footprint{
		memacct.Leaf("hot", s.hotBytes()),
		memacct.Leaf("warm", s.warmBytes()),
		memacct.Leaf("cold", s.coldBytes()),
	}
}

func (s *tieredStore) close() error {
	if s.cold == nil {
		return nil
	}
	return s.cold.close()
}

// CoverageSample is one point of a measured read-coverage curve: the
// hottest K rows served fraction Coverage of all embedding reads. The
// analyze package's capacity report produces the curve; this type keeps
// embed free of an obs/analyze import.
type CoverageSample struct {
	K        int
	Coverage float64
}

// RecommendHotRows sizes the hot tier from a run's own read-coverage curve
// (hetgmp-obs capacity): the smallest sampled K whose coverage reaches
// target. When no sample reaches it the curve's largest K is returned —
// the best the measured hot set can do. Returns 0 for an empty curve or a
// non-positive target.
func RecommendHotRows(curve []CoverageSample, target float64) int {
	if len(curve) == 0 || target <= 0 {
		return 0
	}
	smallest, maxK := 0, 0
	for _, p := range curve {
		if p.K > maxK {
			maxK = p.K
		}
		if p.Coverage >= target && (smallest == 0 || p.K < smallest) {
			smallest = p.K
		}
	}
	if smallest > 0 {
		return smallest
	}
	return maxK
}
