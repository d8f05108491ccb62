package idmap

import (
	"math"
	"testing"

	"hetgmp/internal/xrand"
)

// keySets are the key streams the oracle test fills maps with: seeded random
// ids, the extremes, and runs of consecutive ids like a field's id range.
func keySets(n int, rng *xrand.RNG) map[string][]int32 {
	random := make([]int32, n)
	for i := range random {
		random[i] = int32(rng.Intn(math.MaxInt32))
	}
	consecutive := make([]int32, n)
	for i := range consecutive {
		consecutive[i] = int32(1000 + i)
	}
	extremes := make([]int32, n)
	for i := range extremes {
		// 0, MaxInt32, then ids counting down from MaxInt32 and up from 0.
		if i%2 == 0 {
			extremes[i] = int32(i / 2)
		} else {
			extremes[i] = math.MaxInt32 - int32(i/2)
		}
	}
	// Strided runs: ids of 26 fields, each a contiguous range, every id
	// twice so Insert meets present keys too.
	strided := make([]int32, n)
	for i := range strided {
		strided[i] = int32((i%26)*47000 + i/52)
	}
	return map[string][]int32{"random": random, "consecutive": consecutive, "extremes": extremes, "strided": strided}
}

// TestMatchesGoMap holds Map to a Go map over the same insert-if-absent
// stream, filled to exactly n distinct keys, then checks every present key
// and a set of absent ones, and does it all again after Reset.
func TestMatchesGoMap(t *testing.T) {
	rng := xrand.New(7)
	for _, n := range []int{0, 1, 2, 3, 6656} {
		for name, stream := range keySets(3*n, rng) {
			m := New(n)
			for round := 0; round < 2; round++ {
				oracle := map[int32]int32{}
				for _, k := range stream {
					if len(oracle) == n {
						if _, ok := oracle[k]; !ok {
							continue // the map holds exactly n keys
						}
					}
					want, ok := oracle[k]
					if !ok {
						want = int32(len(oracle)) * 3
						oracle[k] = want
					}
					if got := m.Insert(k, int32(len(oracle)-1)*3); got != want {
						t.Fatalf("n=%d %s round %d: Insert(%d) = %d, want %d", n, name, round, k, got, want)
					}
				}
				for k, want := range oracle {
					if got, ok := m.Get(k); !ok || got != want {
						t.Fatalf("n=%d %s round %d: Get(%d) = %d, %v, want %d", n, name, round, k, got, ok, want)
					}
				}
				for _, k := range []int32{0, 1, 999, 1000 + int32(n), math.MaxInt32, math.MaxInt32 - 1, -1, -2, math.MinInt32} {
					if _, in := oracle[k]; in {
						continue
					}
					if got, ok := m.Get(k); ok {
						t.Fatalf("n=%d %s round %d: absent key %d found with value %d", n, name, round, k, got)
					}
				}
				m.Reset()
				for k := range oracle {
					if _, ok := m.Get(k); ok {
						t.Fatalf("n=%d %s: key %d survived Reset", n, name, k)
					}
				}
			}
		}
	}
}

// TestSizing pins the slot count: the smallest power of two ≥ 2n, so the
// load stays at or below one half, and Bytes is exactly the slot array.
func TestSizing(t *testing.T) {
	for _, c := range []struct{ n, slots int }{{0, 1}, {1, 2}, {2, 4}, {3, 8}, {4, 8}, {5, 16}, {6656, 16384}} {
		m := New(c.n)
		if len(m.slots) != c.slots || m.Bytes() != int64(c.slots)*8 {
			t.Errorf("New(%d): %d slots, %d bytes; want %d slots", c.n, len(m.slots), m.Bytes(), c.slots)
		}
	}
}

// TestInsertContract pins the negative-key panic (−1 would alias the empty
// slot) and that Insert of a present key keeps the value it holds.
func TestInsertContract(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Insert of a negative key did not panic")
			}
		}()
		New(4).Insert(-1, 0)
	}()
	m := New(1)
	m.Insert(5, 9)
	if got := m.Insert(5, 1); got != 9 {
		t.Fatalf("Insert of a present key returned %d, want the held 9", got)
	}
	m.Reset()
	if got := m.Insert(6, 1); got != 1 {
		t.Fatalf("Insert after Reset returned %d, want 1", got)
	}
}

// sink keeps the benchmarked Get from being optimised away.
var sink int32

// BenchmarkIDMap times one Get of a present key (hit) and of an absent one
// (miss) on a table of the dedup's size (6 656 keys, 16 384 slots) filled
// with random ids of a 600 k-feature table.
func BenchmarkIDMap(b *testing.B) {
	const n = 6656
	m := New(n)
	rng := xrand.New(3)
	keys := make([]int32, n)
	for i := range keys {
		keys[i] = int32(rng.Intn(600_000))
		m.Insert(keys[i], int32(i))
	}
	absent := make([]int32, n)
	for i := range absent {
		absent[i] = 600_000 + int32(rng.Intn(600_000))
	}
	for _, c := range []struct {
		name string
		keys []int32
	}{{"hit", keys}, {"miss", absent}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sink, _ = m.Get(c.keys[i%n])
			}
		})
	}
}
