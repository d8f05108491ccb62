package engine

// batchPrep is one prepared mini-batch: the pure output of the dedup stage.
type batchPrep struct {
	uniq     []int32
	batchIdx []int32 // per (sample,field): index into uniq
	labels   []float32
	bs       int
}

// newBatchPrep allocates a batchPrep for batches of up to b samples of the
// given field count.
func newBatchPrep(b, fields int) batchPrep {
	return batchPrep{
		uniq:     make([]int32, 0, b*fields),
		batchIdx: make([]int32, b*fields),
		labels:   make([]float32, b),
	}
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
// and gathers its labels into w.prep.
func (w *worker) prepBatch(batch []int32) {
	cfg := &w.t.cfg
	p := &w.prep
	fields := cfg.Train.NumFields
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
	// order, so uniq keeps first-occurrence order: a new id takes the next
	// slot, a seen one gets the slot it took.
	w.dedup.Reset()
	p.uniq = p.uniq[:0]
	idx := p.batchIdx[:len(batch)*fields]
	for i, x := range idx {
		slot := w.dedup.Insert(x, int32(len(p.uniq)))
		if int(slot) == len(p.uniq) {
			p.uniq = append(p.uniq, x)
		}
		idx[i] = slot
	}
}
