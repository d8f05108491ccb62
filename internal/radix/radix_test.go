package radix

import (
	"slices"
	"testing"

	"hetgmp/internal/xrand"
)

// TestSortRankKeys pins the radix helper against slices.Sort from empty to
// large inputs and on both sides of its digit boundaries, with duplicate
// ranks so that a pass that is not stable shows.
func TestSortRankKeys(t *testing.T) {
	r := xrand.New(17)
	for _, n := range []int{0, 1, 63, 64, 65, 5000} {
		for _, maxRank := range []uint32{1, 1<<Bits - 1, 1 << Bits, 1<<Bits + 1, 1 << (2 * Bits)} {
			keys := make([]uint64, n)
			for i := range keys {
				rank := uint64(r.Intn(int(maxRank) + 1))
				if i%7 == 0 {
					rank = uint64(maxRank) // every digit of the widest rank gets sorted on
				}
				keys[i] = rank<<32 | uint64(i)
			}
			want := slices.Clone(keys)
			slices.Sort(want)
			got := SortRankKeys(keys, make([]uint64, n), maxRank)
			if !slices.Equal(got, want) {
				t.Fatalf("n=%d maxRank=%d: radix order differs from slices.Sort", n, maxRank)
			}
		}
	}
}
