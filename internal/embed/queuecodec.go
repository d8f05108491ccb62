// Queued-update codec: the serialisation that lets one process's queued
// primary effects travel to another process and be replayed there. The
// distributed engine (internal/engine/dist.go) runs full state replication
// — every rank holds the whole table and replays every other rank's queued
// updates into that rank's ghost shard — so commit order, and therefore the
// committed floats, are bit-identical to the single-process run.
//
// Layout (little-endian, following checkpoint.go conventions):
//
//	magic   uint32 = "HGMQ"
//	version uint32 = 1
//	dim     uint32
//	owners  uint32 (the table's worker count)
//	per owner o in [0, owners):
//	  count uint32 (queued entries for owner o, in queue-position order)
//	  per entry: x int32, count int32, delta [dim]float32
package embed

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"hetgmp/internal/lefloat"
)

const (
	queueMagic   = 0x514d4748 // "HGMQ" little-endian
	queueVersion = 1
)

// ErrBadQueueBlob reports a queued-update blob that failed validation.
var ErrBadQueueBlob = errors.New("embed: malformed queued-update blob")

// QueuedSize is the exact number of bytes AppendQueued(buf, w) appends, so
// a caller can size a buffer that carries the blob among other sections.
func (t *Table) QueuedSize(w int) int {
	size := 16
	for _, q := range t.shards[w].queues {
		size += 4 + len(q)*(8+t.dim*4)
	}
	return size
}

// AppendQueued appends the serialisation of worker w's queued primary
// updates (all owner buckets, in owner order, entries in queue position
// order) to buf and returns the extended slice. The shard's queues are left
// untouched; Commit drains them as usual.
func (t *Table) AppendQueued(buf []byte, w int) []byte {
	sh := t.shards[w]
	off, size := len(buf), t.QueuedSize(w)
	buf = slices.Grow(buf, size)[:off+size]
	le := binary.LittleEndian
	le.PutUint32(buf[off:], queueMagic)
	le.PutUint32(buf[off+4:], queueVersion)
	le.PutUint32(buf[off+8:], uint32(t.dim))
	le.PutUint32(buf[off+12:], uint32(t.n))
	off += 16
	for o := 0; o < t.n; o++ {
		q := sh.queues[o]
		le.PutUint32(buf[off:], uint32(len(q)))
		off += 4
		for _, u := range q {
			le.PutUint32(buf[off:], uint32(u.x))
			le.PutUint32(buf[off+4:], uint32(u.count))
			lefloat.Put(buf[off+8:], u.delta)
			off += 8 + 4*t.dim
		}
	}
	return buf
}

// InjectQueued replays a peer rank's encoded queued updates into worker
// w's (ghost) shard, preserving per-owner queue-position order so the
// subsequent Commit applies the identical (worker-ascending,
// position-ascending) sequence the originating process would. The blob
// must come from a table of the same dim and worker count.
//
// The whole blob is validated before any entry is filed, so a rejected
// blob leaves the shard exactly as it was. The entries are filed by
// reference: where the host's float layout allows (a little-endian host
// and a 4-byte-aligned blob) each queued delta is a view into data, not a
// copy. data must therefore stay unmodified until the Commit that drains
// the shard has returned.
func (t *Table) InjectQueued(w int, data []byte) error {
	if err := t.validateQueued(data); err != nil {
		return err
	}
	sh := t.shards[w]
	le := binary.LittleEndian
	entrySize := 8 + t.dim*4
	var grad []float32 // decode scratch for a blob that cannot be viewed
	data = data[16:]
	for o := 0; o < t.n; o++ {
		cnt := int(le.Uint32(data))
		data = data[4:]
		for i := 0; i < cnt; i++ {
			entry := data[:entrySize]
			data = data[entrySize:]
			x, count := int32(le.Uint32(entry)), int32(le.Uint32(entry[4:]))
			if delta := lefloat.View(entry[8:]); delta != nil {
				sh.queues[o] = append(sh.queues[o], primaryUpdate{x: x, count: count, delta: delta})
				continue
			}
			if grad == nil {
				grad = make([]float32, t.dim)
			}
			lefloat.Decode(grad, entry[8:])
			t.queueUpdate(sh, o, x, count, grad)
		}
	}
	return nil
}

// validateQueued checks a queued-update blob against this table: header,
// every owner's entry count, every entry's feature range, count and
// ownership, and the absence of trailing bytes.
func (t *Table) validateQueued(data []byte) error {
	if len(data) < 16 {
		return fmt.Errorf("%w: %d header bytes", ErrBadQueueBlob, len(data))
	}
	le := binary.LittleEndian
	if m := le.Uint32(data); m != queueMagic {
		return fmt.Errorf("%w: magic %#x", ErrBadQueueBlob, m)
	}
	if v := le.Uint32(data[4:]); v != queueVersion {
		return fmt.Errorf("%w: version %d", ErrBadQueueBlob, v)
	}
	if d := le.Uint32(data[8:]); int(d) != t.dim {
		return fmt.Errorf("%w: dim %d, table has %d", ErrBadQueueBlob, d, t.dim)
	}
	if o := le.Uint32(data[12:]); int(o) != t.n {
		return fmt.Errorf("%w: %d owners, table has %d", ErrBadQueueBlob, o, t.n)
	}
	data = data[16:]
	rows := int32(t.cfg.NumFeatures)
	entrySize := 8 + t.dim*4
	for o := 0; o < t.n; o++ {
		if len(data) < 4 {
			return fmt.Errorf("%w: truncated at owner %d", ErrBadQueueBlob, o)
		}
		cnt := int(le.Uint32(data))
		data = data[4:]
		if cnt < 0 || len(data) < cnt*entrySize {
			return fmt.Errorf("%w: owner %d claims %d entries with %d bytes left", ErrBadQueueBlob, o, cnt, len(data))
		}
		for i := 0; i < cnt; i++ {
			entry := data[:entrySize]
			data = data[entrySize:]
			x := int32(le.Uint32(entry))
			count := int32(le.Uint32(entry[4:]))
			if x < 0 || x >= rows || count <= 0 {
				return fmt.Errorf("%w: owner %d entry %d: feature %d count %d", ErrBadQueueBlob, o, i, x, count)
			}
			if got := t.assign.PrimaryOf[x]; got != o {
				return fmt.Errorf("%w: feature %d owned by %d, filed under %d", ErrBadQueueBlob, x, got, o)
			}
		}
	}
	if len(data) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrBadQueueBlob, len(data))
	}
	return nil
}

// QueuedCount reports how many primary updates worker w currently has
// queued across all owners.
func (t *Table) QueuedCount(w int) int {
	n := 0
	for _, q := range t.shards[w].queues {
		n += len(q)
	}
	return n
}
