package embed

import "hetgmp/internal/radix"

// freqRank is what the normalised inter-embedding check needs to know about
// one feature, packed so a visit costs one cache line: its access frequency
// (Config.Freq clamped to ≥ 1) and its rank — its position among all
// features ordered by frequency descending, then feature id ascending.
type freqRank struct {
	rank int32
	freq int32
}

// buildFreqRanks ranks every feature by sorting (max frequency − frequency,
// feature id) keys with radix.SortRankKeys: counting passes only, and
// transient memory of 16 bytes per feature whatever the frequencies are.
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
	keys := make([]uint64, len(out))
	for x, e := range out {
		keys[x] = uint64(maxFreq-e.freq)<<32 | uint64(x)
	}
	for rank, k := range radix.SortRankKeys(keys, make([]uint64, len(keys)), uint32(maxFreq-1)) {
		out[uint32(k)].rank = int32(rank)
	}
	return out
}
