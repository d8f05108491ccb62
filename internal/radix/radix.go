// Package radix holds the LSD radix sort both the embedding table and the
// partitioner order their features with: keys of the form rank<<32 |
// position, sorted in counting passes with transient memory of two keys per
// element whatever the ranks are.
package radix

// Bits is the digit width of SortRankKeys: 2048 counters stay in L1 and any
// rank below 4M sorts in two passes.
const Bits = 11

// SortRankKeys sorts keys of the form rank<<32 | position ascending and
// returns the slice holding the result, keys or tmp (equal lengths; both
// are overwritten). Positions must ascend in the input: the LSD radix
// passes look only at the rank bits, up to maxRank's highest, and rely on
// their stability to keep equal ranks in position order.
func SortRankKeys(keys, tmp []uint64, maxRank uint32) []uint64 {
	tmp = tmp[:len(keys)]
	var next [1 << Bits]uint32
	for shift := 32; maxRank>>(shift-32) != 0; shift += Bits {
		clear(next[:])
		for _, k := range keys {
			next[(k>>shift)&(1<<Bits-1)]++
		}
		var start uint32
		for d, n := range next {
			next[d] = start
			start += n
		}
		for _, k := range keys {
			d := (k >> shift) & (1<<Bits - 1)
			tmp[next[d]] = k
			next[d]++
		}
		keys, tmp = tmp, keys
	}
	return keys
}
