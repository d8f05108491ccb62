package embed

import "slices"

// freqRank is what the normalised inter-embedding check needs to know about
// one feature, packed so a visit costs one cache line: its access frequency
// (Config.Freq clamped to ≥ 1) and its rank — its position among all
// features ordered by frequency descending, then feature id ascending.
type freqRank struct {
	rank int32
	freq int32
}

// buildFreqRanks ranks every feature with one counting sort over the
// integer frequencies: O(F + max frequency) time and a transient
// max-frequency-sized count array, which for bigraph degrees is bounded by
// the sample count.
func buildFreqRanks(freq []int32) []freqRank {
	out := make([]freqRank, len(freq))
	maxFreq := int32(1)
	for x, f := range freq {
		if f < 1 {
			f = 1
		}
		out[x].freq = f
		if f > maxFreq {
			maxFreq = f
		}
	}
	// next[f] is the rank the next feature of frequency f takes: buckets
	// laid out most frequent first, filled in ascending feature id.
	next := make([]int32, int(maxFreq)+1)
	for _, e := range out {
		next[e.freq]++
	}
	var start int32
	for f := maxFreq; f >= 1; f-- {
		start, next[f] = start+next[f], start
	}
	for x := range out {
		f := out[x].freq
		out[x].rank = next[f]
		next[f]++
	}
	return out
}

const (
	// radixBits is the digit width of sortRankKeys: 2048 counters stay in
	// L1 and any table below 4M features sorts in two passes.
	radixBits = 11
	// radixMinKeys is the read-set size below which filling and scanning
	// the counters costs more than a comparison sort.
	radixMinKeys = 64
)

// sortRankKeys sorts keys of the form rank<<32 | position ascending and
// returns the slice holding the result, keys or tmp (equal lengths; both
// are overwritten). Positions must ascend in the input: the LSD radix
// passes look only at the rank bits, up to maxRank's highest, and rely on
// their stability to keep equal ranks in position order.
func sortRankKeys(keys, tmp []uint64, maxRank uint32) []uint64 {
	if len(keys) < radixMinKeys {
		slices.Sort(keys)
		return keys
	}
	tmp = tmp[:len(keys)]
	var next [1 << radixBits]uint32
	for shift := 32; maxRank>>(shift-32) != 0; shift += radixBits {
		clear(next[:])
		for _, k := range keys {
			next[(k>>shift)&(1<<radixBits-1)]++
		}
		var start uint32
		for d, n := range next {
			next[d] = start
			start += n
		}
		for _, k := range keys {
			d := (k >> shift) & (1<<radixBits - 1)
			tmp[next[d]] = k
			next[d]++
		}
		keys, tmp = tmp, keys
	}
	return keys
}
