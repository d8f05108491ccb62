package partition

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The chunked-delta concurrency model (see DESIGN.md §"Parallel hybrid
// partitioning").
//
// The greedy score of Eq. 4 splits into two parts with very different cost
// and freshness profiles:
//
//   - δc, the communication term, is expensive (O(L·N) per sample, O(N²)
//     per embedding in the naive form) but PASS-CONSTANT: sample δc depends
//     only on embedding primaries, which the sample pass never moves, and
//     embedding δc depends only on the count table, which the feature pass
//     never changes. It is therefore safe to precompute δc for a whole
//     block of vertices concurrently against that frozen state.
//   - δb, the balance terms (load gap δξ/δx and communication gap δd), is
//     cheap — O(N) per vertex — but must be fresh, or concurrent movers
//     pile onto the same momentarily-attractive partition.
//
// So each pass runs in two stages: scoring goroutines fill per-candidate δc
// vectors in parallel (writes land in disjoint per-vertex slots), then a
// single reducer walks the visit order in canonical order doing the O(N)
// argmin over δc + δb with fully live balance state and applies the accepted
// moves. The reducer therefore executes the exact sequential greedy — the
// assignment is a pure function of the graph and the seed, bit-identical at
// any GOMAXPROCS, Parallelism or DeltaBlock setting — while the expensive δc
// arithmetic runs on all cores.
//
// The passes stream the visit order in DeltaBlock-sized blocks through two
// small buffers, so the δc staging area stays cache-resident instead of
// scaling with the vertex set, and the stages overlap: the scoring
// goroutines fill block k+1 into one buffer while the reducer walks block k
// in the other. That is race-free for the reason the chunking is — the
// scorers read only state the pass's reducer never writes. (A cross-round
// memoisation of the δc vectors with per-vertex dirty tracking was
// prototyped and rejected: under the power-law degree skew a handful of
// hot-embedding moves per round dirties >90% of samples, so the cache never
// pays for its footprint.)

const (
	minDeltaBlock = 1024
	maxDeltaBlock = 16384
	// scoreChunk is the unit of work one scoring goroutine claims at a
	// time. Chunks tile a block deterministically and proposals land in
	// per-vertex slots, so chunk-to-goroutine scheduling is free to vary.
	scoreChunk = 256
)

// deltaBlock returns the effective block size for a visit order of n
// vertices: the configured size, or ~1/16th of the vertex set clamped to
// [minDeltaBlock, maxDeltaBlock], and never more than n. Purely a
// streaming-granularity / footprint knob — the assignment does not depend
// on it.
func (st *hybridState) deltaBlock(n int) int {
	b := st.cfg.DeltaBlock
	if b == 0 {
		b = min(max(n/16, minDeltaBlock), maxDeltaBlock)
	}
	return min(b, n)
}

// parWorkers returns the scoring goroutine count.
func (st *hybridState) parWorkers() int {
	if w := st.cfg.Parallelism; w > 0 {
		return w
	}
	return runtime.GOMAXPROCS(0)
}

// scoreScratch is one scoring goroutine's private tally buffers.
type scoreScratch struct {
	homeCnt []int32
	touched []int32
}

func (st *hybridState) newScratch() *scoreScratch {
	n := st.a.N
	return &scoreScratch{
		homeCnt: make([]int32, n),
		touched: make([]int32, 0, n),
	}
}

// scoreRange starts fn(scratch, k) for every k in [lo, hi) on up to the
// configured number of goroutines, in scoreChunk-sized slices, and returns
// at once; wg.Wait returns when all of them are done. fn must write only its
// own vertex's slots.
func (st *hybridState) scoreRange(wg *sync.WaitGroup, lo, hi int, fn func(sc *scoreScratch, k int)) {
	chunks := (hi - lo + scoreChunk - 1) / scoreChunk
	next := new(atomic.Int64)
	for w := min(st.parWorkers(), chunks); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := st.newScratch()
			for {
				a := lo + int(next.Add(1)-1)*scoreChunk
				if a >= hi {
					return
				}
				for k := a; k < min(a+scoreChunk, hi); k++ {
					fn(sc, k)
				}
			}
		}()
	}
}

// pipeline walks a visit order of total vertices in blocks of block as a
// two-stage pipeline over two buffers. score(sc, buf, lo, k) fills buffer
// buf's slot for vertex k of the block starting at lo, on the scoring
// goroutines; reduce(buf, lo, hi) walks block [lo, hi) of buffer buf on the
// caller's goroutine. While reduce walks block b, block b+1 is scored into
// the other buffer, so score may read only state that reduce never writes.
func (st *hybridState) pipeline(total, block int, score func(sc *scoreScratch, buf, lo, k int), reduce func(buf, lo, hi int)) {
	var scoring sync.WaitGroup
	start := func(buf, lo int) {
		st.scoreRange(&scoring, lo, min(lo+block, total), func(sc *scoreScratch, k int) {
			score(sc, buf, lo, k)
		})
	}
	if total > 0 {
		start(0, 0)
	}
	for lo, buf := 0, 0; lo < total; lo, buf = lo+block, buf^1 {
		// Block lo is fully scored, and nothing writes either buffer until
		// the next start.
		scoring.Wait()
		if lo+block < total {
			start(buf^1, lo+block)
		}
		reduce(buf, lo, min(lo+block, total))
	}
}

// rowMaxWeights returns max_i w(h, i) per source partition h — the
// per-unit-of-degree worst case used to normalise δc.
func (st *hybridState) rowMaxWeights() []float64 {
	n := st.a.N
	rm := make([]float64, n)
	for h := 0; h < n; h++ {
		for i := 0; i < n; i++ {
			if w := st.weight(h, i); w > rm[h] {
				rm[h] = w
			}
		}
	}
	return rm
}

// chunkedPassSamples is the parallel sample-vertex half of the 1D pass. The
// scorers read primaries from homeOf, a byte-wide snapshot taken here (the
// sample pass never moves a primary), and hand each edge's home to the
// reducer so moveSample need not look it up again.
func (st *hybridState) chunkedPassSamples(order []int32) {
	n := st.a.N
	avgSamp := float64(st.g.NumSamples) / float64(n)
	capSamp := int(avgSamp*(1+st.slack())) + 1
	rowMax := st.rowMaxWeights()
	for x, p := range st.a.PrimaryOf {
		st.homeOf[x] = uint8(p)
	}
	block := st.deltaBlock(len(order))
	maxLen := st.maxLen
	var costs, worsts [2][]float64
	var homes [2][]uint8
	for b := range costs {
		costs[b] = make([]float64, block*n)
		worsts[b] = make([]float64, block)
		homes[b] = make([]uint8, block*maxLen)
	}
	st.pipeline(len(order), block,
		func(sc *scoreScratch, buf, lo, k int) {
			i := k - lo
			worsts[buf][i] = st.sampleCosts(sc, int(order[k]), costs[buf][i*n:(i+1)*n], homes[buf][i*maxLen:(i+1)*maxLen], rowMax)
		},
		func(buf, lo, hi int) {
			for k := lo; k < hi; k++ {
				i := k - lo
				st.reduceSample(int(order[k]), costs[buf][i*n:(i+1)*n], worsts[buf][i], homes[buf][i*maxLen:(i+1)*maxLen], avgSamp, capSamp)
			}
		})
}

// reduceSample is the sequential greedy decision for one sample: the O(N)
// argmin over δc + δb against fully live balance state, applying the move on
// acceptance with the edge homes the scorer recorded. Count-table writes are
// safe here because sample scoring reads only embedding primaries, never the
// table.
func (st *hybridState) reduceSample(s int, cost []float64, worst float64, homes []uint8, avgSamp float64, capSamp int) {
	n := st.a.N
	cur := st.a.SampleOf[s]
	avgComm := st.commAvg()
	normComm := avgComm
	if normComm == 0 {
		normComm = 1
	}
	best, bestScore := -1, 0.0
	for i := 0; i < n; i++ {
		if i != cur && st.nSamp[i] >= capSamp {
			continue
		}
		load := st.nSamp[i]
		if i != cur {
			load++ // marginal: the sample would join i
		}
		deltaXi := (float64(load) - avgSamp) / avgSamp
		deltaD := (st.comm[i] - avgComm) / normComm
		score := cost[i]/worst + st.cfg.Alpha*deltaXi + st.cfg.Gamma*deltaD
		if best < 0 || score < bestScore {
			best, bestScore = i, score
		}
	}
	if best >= 0 && best != cur {
		st.moveSample(s, cur, best, homes[:len(st.g.SampleFeatures(s))])
	}
}

// sampleCosts fills cost[i] = δc(s→i) for every candidate partition and
// homes[k] with the primary home of the sample's k-th feature, and returns
// the worst-case normaliser. δc is accumulated per current feature home —
// one O(L) tally plus an O(N) combine instead of the O(L·N) candidate
// rescan — and depends only on embedding primaries, which are frozen for
// the whole sample pass.
func (st *hybridState) sampleCosts(sc *scoreScratch, s int, cost []float64, homes []uint8, rowMax []float64) float64 {
	n := st.a.N
	feats := st.g.SampleFeatures(s)
	for _, h := range sc.touched {
		sc.homeCnt[h] = 0
	}
	sc.touched = sc.touched[:0]
	for k, x := range feats {
		h := st.homeOf[x]
		homes[k] = h
		if sc.homeCnt[h] == 0 {
			sc.touched = append(sc.touched, int32(h))
		}
		sc.homeCnt[h]++
	}
	var worst float64
	if st.cfg.Weights == nil {
		// Uniform pricing: δc(s→i) = |feats| − #feats already homed on i.
		base := float64(len(feats))
		for i := 0; i < n; i++ {
			cost[i] = base - float64(sc.homeCnt[i])
		}
		for _, h := range sc.touched {
			worst += float64(sc.homeCnt[h]) * rowMax[h]
		}
	} else {
		for i := 0; i < n; i++ {
			cost[i] = 0
		}
		for _, h := range sc.touched {
			cnt := float64(sc.homeCnt[h])
			for i, w := range st.prices[int(h)*n : int(h)*n+n] {
				cost[i] += cnt * w
			}
			worst += cnt * rowMax[h]
		}
	}
	if worst == 0 {
		worst = 1
	}
	return worst
}

// chunkedPassFeatures is the parallel embedding-vertex half of the 1D pass.
// The count table is constant here (only sample moves change it), so block
// scoring reads rows lock-free while the reducer moves primaries.
func (st *hybridState) chunkedPassFeatures(order []int32) {
	n := st.a.N
	avgFeat := float64(st.g.NumFeatures) / float64(n)
	capFeat := int(avgFeat*(1+st.slack())) + 1
	var wmax float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if w := st.weight(i, j); w > wmax {
				wmax = w
			}
		}
	}
	block := st.deltaBlock(len(order))
	var costs [2][]float64
	for b := range costs {
		costs[b] = make([]float64, block*n)
	}
	st.pipeline(len(order), block,
		func(_ *scoreScratch, buf, lo, k int) {
			i := k - lo
			st.featureCosts(order[k], costs[buf][i*n:(i+1)*n])
		},
		func(buf, lo, hi int) {
			for k := lo; k < hi; k++ {
				i := k - lo
				st.reduceFeature(order[k], costs[buf][i*n:(i+1)*n], wmax, avgFeat, capFeat)
			}
		})
}

// reduceFeature is the sequential greedy decision for one embedding primary,
// mirroring reduceSample.
func (st *hybridState) reduceFeature(x int32, cost []float64, wmax, avgFeat float64, capFeat int) {
	n := st.a.N
	cur := st.a.PrimaryOf[x]
	worst := float64(st.g.Degree[x]) * wmax
	if worst == 0 {
		worst = 1
	}
	avgComm := st.commAvg()
	normComm := avgComm
	if normComm == 0 {
		normComm = 1
	}
	best, bestScore := -1, 0.0
	for i := 0; i < n; i++ {
		if i != cur && st.nFeat[i] >= capFeat {
			continue
		}
		load := st.nFeat[i]
		if i != cur {
			load++
		}
		deltaX := (float64(load) - avgFeat) / avgFeat
		deltaD := (st.comm[i] - avgComm) / normComm
		score := cost[i]/worst + st.cfg.Beta*deltaX + st.cfg.Gamma*deltaD
		if best < 0 || score < bestScore {
			best, bestScore = i, score
		}
	}
	if best >= 0 && best != cur {
		st.moveFeature(x, cur, best)
	}
}

// featureCosts fills cost[i] = δc(x→i) = Σ_j count(x,j)·w(i,j) for every
// candidate primary, built once per feature from the count-table row's
// non-zero entries — per-partition cost accumulators instead of the
// candidate×row O(N²) rescan.
func (st *hybridState) featureCosts(x int32, cost []float64) {
	n := st.a.N
	row := st.counts.Row(x)
	if st.cfg.Weights == nil {
		var total int32
		for _, c := range row {
			total += c
		}
		for i := 0; i < n; i++ {
			cost[i] = float64(total - row[i])
		}
		return
	}
	for i := 0; i < n; i++ {
		cost[i] = 0
	}
	for j, c := range row {
		if c == 0 {
			continue
		}
		cnt := float64(c)
		for i := 0; i < n; i++ {
			cost[i] += cnt * st.weight(i, j)
		}
	}
}

// candPair is one (embedding, count) replica candidate.
type candPair struct {
	x, c int32
}

// worseCand reports whether a ranks strictly below b in the replica order
// (higher count first, lower id on ties).
func worseCand(a, b candPair) bool {
	if a.c != b.c {
		return a.c < b.c
	}
	return a.x > b.x
}

// replicateTopK is the 2D vertex-cut pass: per partition, select the
// budget embeddings with the highest δp(x, Gi) = count(x,i) / Σ count(v,i)
// (Eq. 6; the shared denominator makes count(x,i) the ranking key) with a
// bounded min-heap fed from the count table — O(F log k) per partition
// instead of collecting and fully sorting every candidate. Selection runs
// in parallel across partitions; replica-bitset swaps are serialised in the
// reducer because partitions share bitset words.
func (st *hybridState) replicateTopK() {
	budget := st.cfg.ReplicaBudget
	if budget == 0 {
		budget = int(st.cfg.ReplicaFraction * float64(st.g.NumFeatures))
	}
	if budget <= 0 {
		return
	}
	n := st.a.N
	selected := make([][]candPair, n)
	workers := min(st.parWorkers(), n)
	if workers > 1 {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					selected[i] = st.topKCandidates(i, budget)
				}
			}()
		}
		wg.Wait()
	} else {
		for i := 0; i < n; i++ {
			selected[i] = st.topKCandidates(i, budget)
		}
	}
	for i := 0; i < n; i++ {
		// Re-derive this round's replica set from scratch: primaries may
		// have moved since last round, invalidating earlier choices. The
		// maintained secondary list replaces the O(F) bitset sweep.
		for _, x := range st.secondaries[i] {
			st.a.replicas[x].Clear(i)
		}
		lst := st.secondaries[i][:0]
		for _, c := range selected[i] {
			st.a.AddReplica(c.x, i)
			lst = append(lst, c.x)
		}
		st.secondaries[i] = lst
	}
}

// topKCandidates returns the k best replica candidates for partition i as an
// unordered min-heap. The heap root is the worst retained candidate; a new
// candidate replaces it only when strictly better, so the final set is
// exactly the top k under the (count desc, id asc) total order no matter
// the scan mechanics.
func (st *hybridState) topKCandidates(i, k int) []candPair {
	h := make([]candPair, 0, min(k, st.g.NumFeatures))
	for x := int32(0); int(x) < st.g.NumFeatures; x++ {
		if st.a.PrimaryOf[x] == i {
			continue
		}
		c := st.counts.Count(x, i)
		if c <= 0 {
			continue
		}
		cand := candPair{x: x, c: c}
		if len(h) < k {
			h = append(h, cand)
			// Sift up.
			for j := len(h) - 1; j > 0; {
				p := (j - 1) / 2
				if !worseCand(h[j], h[p]) {
					break
				}
				h[j], h[p] = h[p], h[j]
				j = p
			}
			continue
		}
		if !worseCand(h[0], cand) {
			continue
		}
		h[0] = cand
		// Sift down.
		for j := 0; ; {
			l, r := 2*j+1, 2*j+2
			m := j
			if l < len(h) && worseCand(h[l], h[m]) {
				m = l
			}
			if r < len(h) && worseCand(h[r], h[m]) {
				m = r
			}
			if m == j {
				break
			}
			h[j], h[m] = h[m], h[j]
			j = m
		}
	}
	return h
}
