package embed

// freqRank is what the normalised inter-embedding check needs to know about
// one feature, packed so a visit costs one cache line: its access frequency
// (Config.Freq clamped to ≥ 1) and its rank — its position among all
// features ordered by frequency descending, then feature id ascending.
type freqRank struct {
	rank int32
	freq int32
}

// buildFreqRanks ranks every feature by sorting (max frequency − frequency,
// feature id) keys with sortRankKeys: counting passes only, and transient
// memory of 16 bytes per feature whatever the frequencies are.
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
	for rank, k := range sortRankKeys(keys, make([]uint64, len(keys)), uint32(maxFreq-1)) {
		out[uint32(k)].rank = int32(rank)
	}
	return out
}

// radixBits is the digit width of sortRankKeys: 2048 counters stay in L1
// and any table below 4M features sorts in two passes.
const radixBits = 11

// sortRankKeys sorts keys of the form rank<<32 | position ascending and
// returns the slice holding the result, keys or tmp (equal lengths; both
// are overwritten). Positions must ascend in the input: the LSD radix
// passes look only at the rank bits, up to maxRank's highest, and rely on
// their stability to keep equal ranks in position order.
func sortRankKeys(keys, tmp []uint64, maxRank uint32) []uint64 {
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
