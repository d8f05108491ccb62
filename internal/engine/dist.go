// Distributed execution: N shared-nothing processes (or in-process ranks in
// tests) run ONE training job over a comm.Transport, and every rank's
// result — embedding bytes, clocks, AUC history, fabric ledgers — is
// bit-identical to the single-process simulation. That is the property the
// conformance suite's cross-backend oracle asserts, and it is what makes
// the simulation a correctness oracle for any transport backend.
//
// The design is deterministic state replication. Every rank constructs the
// identical Trainer (dataset, partition, table, model and every RNG are
// seed-derived), but per iteration it *computes* only its own rank's
// worker. The concurrent phase's effects on shared state then travel in ONE
// iteration frame per peer per iteration (a MsgGradPush exchange) and are
// replayed so each rank applies the identical commit. The frame's payload,
// little-endian:
//
//	u32 summaryLen | u32 queuedLen | summary | queued | dense
//
//	summary — the worker's iteration summary: sample count, loss,
//	          compute/comm times, protocol counters and the per-owner
//	          traffic of its Read and Update calls (summarySize(n) bytes).
//	queued  — the worker's queued primary updates (embed queue codec),
//	          injected into the sender's ghost shard so Commit drains the
//	          same (worker, position) sequence.
//	dense   — the worker's dense gradient (4·ParamCount bytes, or none for
//	          an idle iteration); the reduction itself is replicated
//	          locally in fixed worker order.
//
// At epoch boundaries one MsgEmbedPull exchange carries the flush traffic +
// flushed pending updates (distFlush). A received frame is untrusted input:
// splitIterationFrame checks every section length before anything is
// sliced.
//
// Each frame byte moves once. A rank encodes its frame into one buffer it
// reuses every round (Send is done with a payload when it returns). A
// peer's queued updates are filed as views into the frame the transport
// received them in, so the frame stays the rank's until the Commit that
// drains them has returned; then it goes back to the transport
// (Coordinator.Release) to receive a later frame into.
//
// Ghost traffic is replayed through the same chargeOwnerTraffic path the
// owning rank ran, on the ghost worker's own fabric stripe, in its program
// order — so the fabric's order-sensitive float ledgers fold identically
// on every rank. The replayed communication times must agree bit-for-bit
// with the ones the owning rank shipped; a mismatch means the replicas
// diverged and surfaces as an error instead of silently corrupt results.
package engine

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"time"

	"hetgmp/internal/comm"
	"hetgmp/internal/embed"
	"hetgmp/internal/lefloat"
)

// DistConfig attaches a Trainer to a transport mesh for multi-rank
// execution. Transport.Size() must equal the topology's worker count: rank
// r computes worker r.
type DistConfig struct {
	// Transport is this rank's connected mesh endpoint. The Trainer drives
	// it; the caller retains ownership and closes it after Run.
	Transport comm.Transport
	// RecvTimeout bounds every collective receive so a dead peer surfaces
	// as comm.ErrTimeout instead of a hang. Zero means no bound.
	RecvTimeout time.Duration
}

// distState is the per-run distributed machinery.
type distState struct {
	coord *comm.Coordinator
	rank  int
	// frame is this rank's outgoing payload, reused by every exchange.
	frame []byte
	// peers holds the last exchange's frames while the ghost shards'
	// queued updates still view them: from replay to the Commit after it.
	peers [][]byte
	// sums are the per-peer summary decode targets, reused every iteration.
	sums []distSummary
}

// release hands the peers' frames back to the transport. Run calls it once
// the Commit that drained their queued updates has returned.
func (d *distState) release() {
	d.coord.Release(d.peers)
	d.peers = nil
}

// distSummary is one worker's iteration summary, exchanged every barrier.
type distSummary struct {
	samples                  int
	loss, compute, iterTime  float64
	readComm, updComm        float64
	localPrimary, localFresh int64
	syncedIntra, syncedInter int64
	remoteReads              int64
	localSecondary           int64
	remotePush, flushed      int64
	readPer, updPer          []embed.OwnerTraffic
}

const distStatCount = 8

// summaryFixed is the summary's fixed part: sample count, five float64
// times and a reserved word, then the protocol counters.
const summaryFixed = 4 + 6*8 + distStatCount*8

// summarySize is the wire size of a summary for an n-worker job: the fixed
// part plus the Read and the Update per-owner traffic.
func summarySize(n int) int {
	return summaryFixed + 2*n*12
}

// iterFrameHeader is the iteration frame's section-length prefix.
const iterFrameHeader = 8

// extend grows buf by n bytes and returns the extended slice with the
// offset the new bytes start at.
func extend(buf []byte, n int) ([]byte, int) {
	off := len(buf)
	return slices.Grow(buf, n)[:off+n], off
}

func appendTraffic(buf []byte, per []embed.OwnerTraffic) []byte {
	buf, off := extend(buf, 12*len(per))
	for _, tr := range per {
		binary.LittleEndian.PutUint32(buf[off:], uint32(tr.SyncVecs))
		binary.LittleEndian.PutUint32(buf[off+4:], uint32(tr.FlushVecs))
		binary.LittleEndian.PutUint32(buf[off+8:], uint32(tr.MetaKeys))
		off += 12
	}
	return buf
}

// appendSummary serialises w's state after its concurrent phase:
// summarySize(n) bytes. Idle workers ship an all-zero summary.
func appendSummary(buf []byte, w *worker) []byte {
	buf, off := extend(buf, summaryFixed)
	le := binary.LittleEndian
	le.PutUint32(buf[off:], uint32(w.iterSamples))
	off += 4
	for _, v := range [...]uint64{
		math.Float64bits(w.iterLoss), math.Float64bits(w.iterCompute),
		math.Float64bits(w.iterTime), math.Float64bits(w.iterReadComm),
		math.Float64bits(w.iterUpdateComm),
		0, // reserved
		uint64(w.iterLocalPrimary), uint64(w.iterLocalFresh),
		uint64(w.iterSyncedIntra), uint64(w.iterSyncedInter), uint64(w.iterRemoteReads),
		uint64(w.iterLocalSecondary), uint64(w.iterRemotePush), uint64(w.iterFlushed),
	} {
		le.PutUint64(buf[off:], v)
		off += 8
	}
	buf = appendTraffic(buf, w.distReadPer)
	return appendTraffic(buf, w.distUpdPer)
}

// appendDense serialises a dense gradient.
func appendDense(buf []byte, g []float32) []byte {
	buf, off := extend(buf, 4*len(g))
	lefloat.Put(buf[off:], g)
	return buf
}

// encodeIterationFrame builds this rank's iteration frame in the rank's
// reused frame buffer, grown on demand. The returned frame is valid until
// the next encode.
func (t *Trainer) encodeIterationFrame(w *worker) []byte {
	dense := t.denseGrad[w.id]
	if w.iterSamples == 0 {
		// reduceDense skips idle workers, so no gradient needs to travel.
		dense = nil
	}
	sumLen, queuedLen := summarySize(t.n), t.table.QueuedSize(w.id)
	buf := slices.Grow(t.dist.frame[:0], iterFrameHeader+sumLen+queuedLen+4*len(dense))
	buf, _ = extend(buf, iterFrameHeader)
	binary.LittleEndian.PutUint32(buf[0:], uint32(sumLen))
	binary.LittleEndian.PutUint32(buf[4:], uint32(queuedLen))
	buf = appendSummary(buf, w)
	buf = t.table.AppendQueued(buf, w.id)
	buf = appendDense(buf, dense)
	t.dist.frame = buf
	return buf
}

// splitIterationFrame validates a peer's iteration frame for an n-worker
// job whose model has paramCount dense parameters and returns its three
// sections. It never slices past the blob: a frame from the wire is
// untrusted until every length has been checked.
func splitIterationFrame(blob []byte, n, paramCount int) (summary, queued, dense []byte, err error) {
	if len(blob) < iterFrameHeader {
		return nil, nil, nil, fmt.Errorf("engine: iteration frame is %d bytes, want at least %d", len(blob), iterFrameHeader)
	}
	sumLen := uint64(binary.LittleEndian.Uint32(blob[0:]))
	queuedLen := uint64(binary.LittleEndian.Uint32(blob[4:]))
	body := blob[iterFrameHeader:]
	if sumLen+queuedLen > uint64(len(body)) {
		return nil, nil, nil, fmt.Errorf("engine: iteration frame sections (summary %d + queued %d bytes) overrun its %d-byte body",
			sumLen, queuedLen, len(body))
	}
	if sumLen != uint64(summarySize(n)) {
		return nil, nil, nil, fmt.Errorf("engine: iteration frame summary is %d bytes, want %d", sumLen, summarySize(n))
	}
	dense = body[sumLen+queuedLen:]
	if len(dense) != 0 && len(dense) != 4*paramCount {
		return nil, nil, nil, fmt.Errorf("engine: iteration frame dense section is %d bytes, want 0 or %d", len(dense), 4*paramCount)
	}
	return body[:sumLen], body[sumLen : sumLen+queuedLen], dense, nil
}

// decodeSummary fills s from a summary blob of an n-worker job, reusing
// s's traffic slices.
func decodeSummary(s *distSummary, data []byte, n int) error {
	if len(data) != summarySize(n) {
		return fmt.Errorf("engine: summary blob is %d bytes, want %d", len(data), summarySize(n))
	}
	u32 := func() uint32 {
		v := binary.LittleEndian.Uint32(data[:4])
		data = data[4:]
		return v
	}
	u64 := func() uint64 {
		v := binary.LittleEndian.Uint64(data[:8])
		data = data[8:]
		return v
	}
	f64 := func() float64 { return math.Float64frombits(u64()) }
	s.samples = int(u32())
	s.loss, s.compute, s.iterTime = f64(), f64(), f64()
	s.readComm, s.updComm = f64(), f64()
	u64() // reserved
	stats := [distStatCount]*int64{
		&s.localPrimary, &s.localFresh,
		&s.syncedIntra, &s.syncedInter, &s.remoteReads,
		&s.localSecondary, &s.remotePush, &s.flushed,
	}
	for _, p := range stats {
		*p = int64(u64())
	}
	trafficN := func(per []embed.OwnerTraffic) []embed.OwnerTraffic {
		per = slices.Grow(per[:0], n)[:n]
		for o := range per {
			per[o].SyncVecs = int(u32())
			per[o].FlushVecs = int(u32())
			per[o].MetaKeys = int(u32())
		}
		return per
	}
	s.readPer = trafficN(s.readPer)
	s.updPer = trafficN(s.updPer)
	return nil
}

func decodeDense(dst []float32, data []byte) error {
	if len(data) != 4*len(dst) {
		return fmt.Errorf("engine: dense gradient blob is %d bytes, want %d", len(data), 4*len(dst))
	}
	lefloat.Decode(dst, data)
	return nil
}

// distIterate is the distributed form of the per-iteration worker fan-out:
// run this rank's worker, all-gather one iteration frame (summary, queued
// updates, dense gradient), then replay every peer's effects locally so the
// rest of the loop — barrier time, dense reduce, Commit, evaluation —
// executes identically on every rank over identical state. The peers'
// frames stay held (d.peers) until Run releases them after that Commit.
func (t *Trainer) distIterate() error {
	d := t.dist
	me := t.workers[d.rank]
	if me.hasWork() {
		me.runIteration()
	} else {
		me.resetIdle()
	}

	frames, err := d.coord.Exchange(comm.MsgGradPush, t.encodeIterationFrame(me))
	if err != nil {
		return fmt.Errorf("engine: iteration exchange: %w", err)
	}
	d.peers = frames

	for p := 0; p < t.n; p++ {
		if p == d.rank {
			continue
		}
		sum, queued, grad, err := splitIterationFrame(frames[p], t.n, len(t.denseGrad[p]))
		if err == nil {
			err = t.replayPeer(p, sum, queued, grad)
		}
		if err != nil {
			return fmt.Errorf("engine: replaying rank %d: %w", p, err)
		}
	}
	return nil
}

// replayPeer applies one ghost worker's exchanged iteration effects: the
// summary populates the worker's per-iteration fields, the traffic replays
// through the fabric on the ghost's own ledger stripe, the queued updates
// inject into the ghost shard, and the dense gradient lands in its slot.
func (t *Trainer) replayPeer(p int, sum, queued, grad []byte) error {
	w := t.workers[p]
	s := &t.dist.sums[p]
	if err := decodeSummary(s, sum, t.n); err != nil {
		return err
	}
	if s.samples == 0 {
		if w.hasWork() {
			return fmt.Errorf("engine: rank %d reports an idle iteration but its shard has samples left", p)
		}
		w.resetIdle()
		return nil
	}

	// Advance the ghost cursor exactly as its runIteration would have.
	b := t.cfg.BatchPerWorker
	end := w.cursor + b
	if end > len(w.order) {
		end = len(w.order)
	}
	if got := end - w.cursor; got != s.samples {
		return fmt.Errorf("engine: rank %d reports %d samples, local shard replica expects %d", p, s.samples, got)
	}
	w.cursor = end

	w.iterSamples = s.samples
	w.iterLoss = s.loss
	w.iterCompute = s.compute
	w.iterTime = s.iterTime
	w.iterNICOut, w.iterNICIn = 0, 0

	// Replay the fabric traffic in the ghost's program order (Read before
	// Update) on its own stripe. The fabric's pricing is a pure function
	// of topology and payload, so the replayed times must agree with the
	// owning rank's to the last bit — disagreement means divergence.
	readComm := w.chargeOwnerTraffic(s.readPer)
	updComm := w.chargeOwnerTraffic(s.updPer)
	if readComm != s.readComm || updComm != s.updComm {
		return fmt.Errorf("engine: rank %d comm-time replay diverged: read %v vs %v, update %v vs %v",
			p, readComm, s.readComm, updComm, s.updComm)
	}
	w.iterReadComm = readComm
	w.iterUpdateComm = updComm

	w.iterLocalPrimary, w.iterLocalFresh = s.localPrimary, s.localFresh
	w.iterSyncedIntra, w.iterSyncedInter = s.syncedIntra, s.syncedInter
	w.iterRemoteReads = s.remoteReads
	w.iterLocalSecondary, w.iterRemotePush, w.iterFlushed = s.localSecondary, s.remotePush, s.flushed
	w.accumulateStats()

	if err := t.table.InjectQueued(p, queued); err != nil {
		return err
	}
	return decodeDense(t.denseGrad[p], grad)
}

// distFlush is the distributed form of Table.FlushAll at an epoch
// boundary: flush this rank's pending buffers, all-gather (flush traffic,
// flushed updates), inject the peers' updates into their ghost shards,
// then commit and resync — the same primitive sequence FlushAll runs, with
// an exchange spliced between flush and commit. The returned traffic is
// identical on every rank, so the engine's flush-charging loop is too.
func (t *Trainer) distFlush() ([][]embed.OwnerTraffic, error) {
	d := t.dist
	traffic := t.table.FlushWorkerPending(d.rank)

	payload := appendTraffic(d.frame[:0], traffic)
	payload = t.table.AppendQueued(payload, d.rank)
	d.frame = payload
	blobs, err := d.coord.Exchange(comm.MsgEmbedPull, payload)
	if err != nil {
		return nil, fmt.Errorf("engine: flush exchange: %w", err)
	}

	out := make([][]embed.OwnerTraffic, t.n)
	for p := 0; p < t.n; p++ {
		if p == d.rank {
			out[p] = traffic
			continue
		}
		blob := blobs[p]
		if len(blob) < t.n*12 {
			return nil, fmt.Errorf("engine: flush blob from rank %d is %d bytes, want at least %d", p, len(blob), t.n*12)
		}
		per := make([]embed.OwnerTraffic, t.n)
		for o := range per {
			per[o].SyncVecs = int(binary.LittleEndian.Uint32(blob[o*12:]))
			per[o].FlushVecs = int(binary.LittleEndian.Uint32(blob[o*12+4:]))
			per[o].MetaKeys = int(binary.LittleEndian.Uint32(blob[o*12+8:]))
		}
		out[p] = per
		if err := t.table.InjectQueued(p, blob[t.n*12:]); err != nil {
			return nil, fmt.Errorf("engine: flush inject from rank %d: %w", p, err)
		}
	}
	t.table.Commit()
	d.coord.Release(blobs)
	t.table.ResyncReplicas(out)
	return out, nil
}

// distBarrier synchronises all ranks at the end of a run (best-effort: a
// rank that already failed cannot be waited on).
func (t *Trainer) distBarrier() {
	if t.dist != nil {
		_ = t.dist.coord.Barrier()
	}
}
