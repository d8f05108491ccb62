package engine

import "time"

// Iteration pipelining (ExecConfig.Pipeline).
//
// The only part of the gather stage that does not depend on the embedding
// table is the batch preparation: cutting the next batch from the epoch
// order, gathering labels, and deduplicating the batch's features into the
// unique list + per-(sample,field) index. Everything it reads is either
// read-only for the whole run (cfg.Train.Samples) or frozen for the epoch
// (w.order), so it can run for iteration i+1 while iteration i is still in
// its forward/backward/commit — unlike the embedding Read, which must
// observe iteration i's Commit and therefore cannot move.
//
// Mechanics: two batchPrep buffers per worker. The running iteration
// consumes prep[curPrep]; kickPrefetch cuts the next batch (cursor advances
// on the iteration goroutine, so hasWork/checkEpochCoverage never race) and
// hands the dedup to the shared compute pool, writing the other buffer
// under dedup generation g+1. The generation-stamped index makes that safe:
// iteration i's slots are already frozen into its batchPrep, so the two
// in-flight generations never read each other. takePrep joins the prefetch
// before touching the buffer, which is also the happens-before edge.
//
// Because the prefetch computes byte-for-byte what the serial path would
// have computed one stage later, Pipeline is result-invariant: it changes
// wall-clock only. The engine.pipeline.* counters below are deliberately
// wall-clock (unlike the sim-time obs.Phase spans, which Pipeline must not
// and does not change) — they attribute the hidden host time.

// batchPrep is one prepared mini-batch: the pure output of the dedup stage.
type batchPrep struct {
	uniq     []int32
	batchIdx []int32 // per (sample,field): index into uniq
	labels   []float32
	bs       int
	valid    bool
}

// nextBatch cuts the next mini-batch from the epoch order and advances the
// cursor. Called only on the goroutine running the worker's iteration.
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
// and gathers its labels into p. It bumps the dedup generation; calls are
// serialized (takePrep joins any in-flight prefetch first).
func (w *worker) prepBatch(p *batchPrep, batch []int32) {
	cfg := &w.t.cfg
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
	p.valid = true
}

// takePrep returns the current iteration's batchPrep, joining an in-flight
// prefetch (and accounting the stall) or preparing inline when the pipeline
// is off or cold (first iteration of an epoch).
func (w *worker) takePrep() *batchPrep {
	w.joinPrefetch()
	p := &w.prep[w.curPrep]
	if !p.valid {
		w.prepBatch(p, w.nextBatch())
	}
	p.valid = false
	return p
}

// kickPrefetch starts preparing the next batch on the shared compute pool.
// No-op when the pipeline is off or the epoch is exhausted.
func (w *worker) kickPrefetch() {
	if !w.t.pipelineOn || w.cursor >= len(w.order) {
		return
	}
	batch := w.nextBatch()
	next := &w.prep[1-w.curPrep]
	w.curPrep = 1 - w.curPrep
	met := w.t.met
	w.prefetchWait = w.t.nnPool.Go(func() {
		start := time.Now()
		w.prepBatch(next, batch)
		if met != nil {
			met.pipeBatches.Add(w.id, 1)
			met.pipePrefetch.Add(w.id, time.Since(start).Nanoseconds())
		}
	})
}

// joinPrefetch waits out an in-flight prefetch, if any, charging the wait
// to the pipeline stall counter. Idempotent.
func (w *worker) joinPrefetch() {
	wait := w.prefetchWait
	if wait == nil {
		return
	}
	w.prefetchWait = nil
	if m := w.t.met; m != nil {
		start := time.Now()
		wait()
		m.pipeStall.Add(w.id, time.Since(start).Nanoseconds())
		return
	}
	wait()
}
