package embed

import (
	"fmt"

	"hetgmp/internal/obs/memacct"
	"hetgmp/internal/tensor"
)

// Tiered row storage (the HET cache claim made executable): the primary
// table's rows live behind one row-access interface in three tiers — a hot
// clock-LFU cache over the Zipf head, a packed warm arena, and file-backed
// cold spill shards — instead of one flat matrix. The values are the same
// float32 bits wherever a row lives, and all tier movement happens at
// commit boundaries, so a tiered run is bit-identical to the flat table at
// any GOMAXPROCS.
//
// # Determinism
//
// Reads run concurrently across workers and commit sweeps concurrently
// across owners, so neither may mutate shared cache state. Tier membership
// is therefore frozen during both concurrent phases: accesses serve a row
// from wherever it currently lives and only log the touch, bucketed by
// worker (reads) or owner (commits). maintain() — called single-threaded
// from finishCommit — folds the logs in fixed order (workers ascending,
// then owners ascending) and applies promotions and clock evictions there.
// Each worker's and owner's own touch sequence is already deterministic
// under the engine's two-phase discipline, so the cache reaches the same
// state at any parallelism; the clock hand is the only tie-break and it
// never consults a map iteration or the wall clock.

// TierConfig selects the Table's row-storage implementation. The zero
// value keeps the flat matrix.
type TierConfig struct {
	// HotRows is the hot tier's capacity in rows. 0 disables tiering.
	// Sized explicitly, or from a run's own read-coverage curve via
	// RecommendHotRows (hetgmp-obs capacity).
	HotRows int
	// ColdRows is how many of the highest feature ids spill to the
	// file-backed cold tier; the remaining NumFeatures−ColdRows rows pack
	// into the warm arena.
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
// sizing, hit counters by access path, and the maintenance pass's
// promotion/demotion totals. Nil on a flat table.
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
// rowRead and rowCommit serve during the two concurrent phases and must
// not mutate shared tier state (they log touches on the caller's stripe);
// rowView is the untracked access for single-threaded sections (init,
// checkpoint, resync, evaluation, diagnostics) and for the read phase's
// side lookups that were already counted.
type rowStore interface {
	rowRead(w int, x int32) []float32
	rowCommit(o int, x int32) []float32
	rowView(x int32) []float32
	// maintain folds the touch logs and applies promotions/evictions; the
	// Table calls it single-threaded at every commit boundary.
	maintain()
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
func (s *flatStore) maintain()                          {}
func (s *flatStore) stats() *TierStats                  { return nil }
func (s *flatStore) close() error                       { return nil }

func (s *flatStore) footprint() []memacct.Footprint {
	return []memacct.Footprint{memacct.Leaf("values", int64(len(s.m.Data))*4)}
}

// hotRefMax saturates the clock-LFU reference counters: a slot survives at
// most hotRefMax hand passes without a fresh touch.
const hotRefMax = 3

// defaultColdShardRows is the cold tier's rows-per-shard-file default.
const defaultColdShardRows = 8192

// tierStripe is one worker's (or owner's) private lane of tier accounting:
// the touch log the maintenance pass folds and the per-tier serve counters.
// Padded so concurrent lanes never share a cache line.
type tierStripe struct {
	touches         []int32
	hot, warm, cold int64
	_               [16]byte
}

// tieredStore implements rowStore as hot cache + warm arena + cold spill.
type tieredStore struct {
	dim      int
	rows     int
	warmRows int // features [0, warmRows) are warm-backed; the rest cold

	// Warm tier: rows packed into contiguous per-shard arenas — an
	// index→offset computation, no per-row slice headers.
	warmShardRows int
	warm          [][]float32

	cold *coldStore // nil when ColdRows is 0

	// Hot tier: clock-LFU cache. slotOf is an array, not a map, so the
	// maintenance pass never depends on map iteration order.
	hotVals []float32
	hotFeat []int32 // slot → feature, −1 empty
	hotRef  []uint8 // clock reference counters
	slotOf  []int32 // feature → slot, −1 not cached
	hand    int

	readStripes   []tierStripe // by worker
	commitStripes []tierStripe // by owner

	promotions int64
	demotions  int64
}

func newTieredStore(cfg TierConfig, rows, dim, workers int) (*tieredStore, error) {
	if cfg.ColdRows < 0 || cfg.ColdRows > rows {
		return nil, fmt.Errorf("embed: TierConfig.ColdRows %d outside [0, %d]", cfg.ColdRows, rows)
	}
	hot := cfg.HotRows
	if hot > rows {
		hot = rows
	}
	perShard := cfg.ColdShardRows
	if perShard <= 0 {
		perShard = defaultColdShardRows
	}
	s := &tieredStore{
		dim:           dim,
		rows:          rows,
		warmRows:      rows - cfg.ColdRows,
		warmShardRows: perShard,
		hotVals:       make([]float32, hot*dim),
		hotFeat:       make([]int32, hot),
		hotRef:        make([]uint8, hot),
		slotOf:        make([]int32, rows),
		readStripes:   make([]tierStripe, workers),
		commitStripes: make([]tierStripe, workers),
	}
	for i := range s.hotFeat {
		s.hotFeat[i] = -1
	}
	for i := range s.slotOf {
		s.slotOf[i] = -1
	}
	for off := 0; off < s.warmRows; off += perShard {
		r := perShard
		if rem := s.warmRows - off; rem < r {
			r = rem
		}
		s.warm = append(s.warm, make([]float32, r*dim))
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

// backingRow returns x's warm- or cold-tier storage, bypassing the cache.
func (s *tieredStore) backingRow(x int32) []float32 {
	i := int(x)
	if i >= s.warmRows {
		return s.cold.row(i - s.warmRows)
	}
	sh, off := i/s.warmShardRows, (i%s.warmShardRows)*s.dim
	return s.warm[sh][off : off+s.dim : off+s.dim]
}

func (s *tieredStore) hotRow(slot int) []float32 {
	off := slot * s.dim
	return s.hotVals[off : off+s.dim : off+s.dim]
}

// serve locates x and bumps the stripe's per-tier counter and touch log.
func (s *tieredStore) serve(st *tierStripe, x int32) []float32 {
	st.touches = append(st.touches, x)
	if slot := s.slotOf[x]; slot >= 0 {
		st.hot++
		return s.hotRow(int(slot))
	}
	if int(x) < s.warmRows {
		st.warm++
	} else {
		st.cold++
	}
	return s.backingRow(x)
}

func (s *tieredStore) rowRead(w int, x int32) []float32 {
	return s.serve(&s.readStripes[w], x)
}

func (s *tieredStore) rowCommit(o int, x int32) []float32 {
	return s.serve(&s.commitStripes[o], x)
}

func (s *tieredStore) rowView(x int32) []float32 {
	if slot := s.slotOf[x]; slot >= 0 {
		return s.hotRow(int(slot))
	}
	return s.backingRow(x)
}

// maintain folds the window's touch logs in fixed order and applies the
// clock-LFU policy: a touched cached row gains a reference; a touched
// uncached row is promoted into the slot the clock hand frees, demoting
// (writing back) the evicted occupant. Runs single-threaded.
func (s *tieredStore) maintain() {
	for w := range s.readStripes {
		st := &s.readStripes[w]
		for _, x := range st.touches {
			s.touch(x)
		}
		st.touches = st.touches[:0]
	}
	for o := range s.commitStripes {
		st := &s.commitStripes[o]
		for _, x := range st.touches {
			s.touch(x)
		}
		st.touches = st.touches[:0]
	}
}

func (s *tieredStore) touch(x int32) {
	if len(s.hotFeat) == 0 {
		return
	}
	if slot := s.slotOf[x]; slot >= 0 {
		if s.hotRef[slot] < hotRefMax {
			s.hotRef[slot]++
		}
		return
	}
	slot := s.evictSlot()
	if victim := s.hotFeat[slot]; victim >= 0 {
		copy(s.backingRow(victim), s.hotRow(slot))
		s.slotOf[victim] = -1
		s.demotions++
	}
	copy(s.hotRow(slot), s.backingRow(x))
	s.hotFeat[slot] = x
	s.slotOf[x] = int32(slot)
	s.hotRef[slot] = 1
	s.promotions++
}

// evictSlot advances the clock hand until it finds an empty slot or one
// whose references have decayed to zero. Bounded: every pass decrements, so
// at most hotRefMax+1 sweeps.
func (s *tieredStore) evictSlot() int {
	for {
		slot := s.hand
		s.hand++
		if s.hand == len(s.hotFeat) {
			s.hand = 0
		}
		if s.hotFeat[slot] < 0 || s.hotRef[slot] == 0 {
			return slot
		}
		s.hotRef[slot]--
	}
}

func (s *tieredStore) hotBytes() int64 {
	return int64(len(s.hotVals))*4 + s.indexBytes()
}

func (s *tieredStore) indexBytes() int64 {
	return int64(len(s.hotFeat))*4 + int64(len(s.hotRef)) + int64(len(s.slotOf))*4
}

func (s *tieredStore) warmBytes() int64 {
	var n int64
	for _, a := range s.warm {
		n += int64(len(a)) * 4
	}
	return n
}

func (s *tieredStore) coldBytes() int64 {
	if s.cold == nil {
		return 0
	}
	return s.cold.bytes()
}

func (s *tieredStore) stats() *TierStats {
	ts := &TierStats{
		HotRows:    len(s.hotFeat),
		WarmRows:   s.warmRows,
		ColdRows:   s.rows - s.warmRows,
		HotBytes:   s.hotBytes(),
		WarmBytes:  s.warmBytes(),
		ColdBytes:  s.coldBytes(),
		Promotions: s.promotions,
		Demotions:  s.demotions,
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

func (s *tieredStore) footprint() []memacct.Footprint {
	var logs int64
	for i := range s.readStripes {
		logs += int64(cap(s.readStripes[i].touches))*4 + int64(cap(s.commitStripes[i].touches))*4
	}
	return []memacct.Footprint{
		memacct.Node("hot",
			memacct.Leaf("values", int64(len(s.hotVals))*4),
			memacct.Leaf("index", s.indexBytes()),
		),
		memacct.Node("warm",
			memacct.Leaf("arena", s.warmBytes()),
		),
		memacct.Node("cold",
			memacct.Leaf("mapped", s.coldBytes()),
		),
		memacct.Leaf("touch_logs", logs),
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
