// Package idmap is a fixed-capacity open-addressed map from non-negative
// int32 keys (feature ids) to int32 values (rows or slots). It backs the two
// per-feature lookups on the training hot path: a worker's batch dedup and a
// table shard's replica index. Both know their key count up front, so the
// table is sized once and never grows, and neither ever deletes.
package idmap

// golden is 2³²/φ, the Fibonacci hashing multiplier.
const golden = 0x9E3779B9

// slot keeps a key and its value on one cache line. key is the stored key
// plus one, so the zero slot is empty and Reset is a memclr.
type slot struct {
	key uint32
	val int32
}

// Map is the table. The zero value is not usable; call New.
type Map struct {
	slots []slot
	mask  uint32
	shift uint32
}

// New returns an empty map for up to n keys, with a power of two ≥ 2n slots
// so the load never exceeds one half.
func New(n int) *Map {
	size, bits := 1, uint32(0)
	for size < 2*n {
		size <<= 1
		bits++
	}
	return &Map{slots: make([]slot, size), mask: uint32(size - 1), shift: 32 - bits}
}

// home is k's first probe position.
func (m *Map) home(k int32) uint32 { return uint32(k) * golden >> m.shift }

// Get returns k's value and whether k is present.
func (m *Map) Get(k int32) (int32, bool) {
	want := uint32(k) + 1
	for i := m.home(k); ; i = (i + 1) & m.mask {
		s := m.slots[i]
		if s.key == 0 {
			return 0, false
		}
		if s.key == want {
			return s.val, true
		}
	}
}

// Insert stores v under k unless k is present, and returns the value k now
// holds: the earlier one, or v. k must be non-negative (−1 would alias the
// empty slot). The callers insert at most the n keys New was given, which
// their sizes bound; Insert does not count them, and only a table with no
// empty slot left (2n keys) would make a probe run forever. The panic
// message is a constant so that Insert stays small enough to inline.
func (m *Map) Insert(k, v int32) int32 {
	if k < 0 {
		panic("idmap: negative key")
	}
	want := uint32(k) + 1
	for i := m.home(k); ; i = (i + 1) & m.mask {
		s := &m.slots[i]
		if s.key == want {
			return s.val
		}
		if s.key == 0 {
			*s = slot{key: want, val: v}
			return v
		}
	}
}

// Reset empties the map, keeping its slots.
func (m *Map) Reset() { clear(m.slots) }

// Bytes is the map's resident size: its slot array.
func (m *Map) Bytes() int64 { return int64(len(m.slots)) * 8 }
