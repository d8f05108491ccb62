package engine

// batchPrep is one prepared mini-batch: the pure output of the dedup stage.
type batchPrep struct {
	uniq     []int32
	batchIdx []int32 // per (sample,field): index into uniq
	labels   []float32
	bs       int
}

// nextBatch cuts the next mini-batch from the epoch order and advances the
// cursor.
func (w *worker) nextBatch() []int32 {
	end := w.cursor + w.t.cfg.BatchPerWorker
	if end > len(w.order) {
		end = len(w.order)
	}
	batch := w.order[w.cursor:end]
	w.cursor = end
	return batch
}

// prepBatch deduplicates batch's features — the paper's "local reduction" —
// and gathers its labels into w.prep. It bumps the dedup generation.
func (w *worker) prepBatch(batch []int32) {
	cfg := &w.t.cfg
	p := &w.prep
	fields := cfg.Train.NumFields
	w.gen++
	if w.gen == 0 {
		// Generation counter wrapped: old stamps become ambiguous, so
		// invalidate them all once and restart from 1.
		clear(w.uniqGen)
		w.gen = 1
	}
	p.bs = len(batch)
	// Stage the batch first: every iteration of this loop is independent, so
	// the cache misses on the shuffled samples overlap instead of queueing
	// behind the dedup's loop-carried state.
	for r, si := range batch {
		s := &cfg.Train.Samples[si]
		p.labels[r] = s.Label
		copy(p.batchIdx[r*fields:(r+1)*fields], s.Features)
	}
	// Then replace each staged id by its slot, in the same (sample, field)
	// order, so uniq keeps first-occurrence order.
	p.uniq = p.uniq[:0]
	idx := p.batchIdx[:len(batch)*fields]
	for i, x := range idx {
		if w.uniqGen[x] != w.gen {
			w.uniqGen[x] = w.gen
			w.uniqSlot[x] = int32(len(p.uniq))
			p.uniq = append(p.uniq, x)
		}
		idx[i] = w.uniqSlot[x]
	}
}
