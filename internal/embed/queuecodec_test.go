package embed

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"hetgmp/internal/xrand"
)

// encodeQueuedOracle is the queue encoder as it stood before AppendQueued,
// kept word for word: AppendQueued must produce exactly its bytes.
func encodeQueuedOracle(t *Table, w int) []byte {
	sh := t.shards[w]
	size := 16
	for _, q := range sh.queues {
		size += 4 + len(q)*(8+t.dim*4)
	}
	buf := make([]byte, 0, size)
	var u32 [4]byte
	put := func(v uint32) {
		binary.LittleEndian.PutUint32(u32[:], v)
		buf = append(buf, u32[:]...)
	}
	put(queueMagic)
	put(queueVersion)
	put(uint32(t.dim))
	put(uint32(t.n))
	for o := 0; o < t.n; o++ {
		q := sh.queues[o]
		put(uint32(len(q)))
		for _, u := range q {
			put(uint32(u.x))
			put(uint32(u.count))
			for _, v := range u.delta {
				put(math.Float32bits(v))
			}
		}
	}
	return buf
}

// queueRandom queues n updates on worker w's shard: random features (so
// both owner buckets fill), counts and deltas, including the float values a
// codec is most likely to mangle.
func queueRandom(tbl *Table, w, n int, rng *xrand.RNG) {
	special := []float32{0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.NaN()), math.SmallestNonzeroFloat32, -math.MaxFloat32}
	grad := make([]float32, tbl.dim)
	for i := 0; i < n; i++ {
		x := int32(rng.Intn(tbl.cfg.NumFeatures))
		for j := range grad {
			grad[j] = float32(rng.NormFloat64())
			if rng.Intn(8) == 0 {
				grad[j] = special[rng.Intn(len(special))]
			}
		}
		tbl.queueUpdate(tbl.shards[w], tbl.assign.PrimaryOf[x], x, int32(1+rng.Intn(5)), grad)
	}
}

// TestQueuedCodecRoundTrip holds AppendQueued to the previous encoder's
// exact bytes — on empty queues, one-sided queues and random ones, from a
// nil buffer and behind a prefix — and InjectQueued to reproducing the
// queues entry for entry in a peer table's ghost shard.
func TestQueuedCodecRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		fill func(tbl *Table, rng *xrand.RNG)
	}{
		{"empty", func(*Table, *xrand.RNG) {}},
		{"one-owner", func(tbl *Table, _ *xrand.RNG) {
			tbl.queueUpdate(tbl.shards[1], 0, 2, 1, []float32{1, -2, 3, -4})
			tbl.queueUpdate(tbl.shards[1], 0, 0, 7, []float32{0.5, 0, 0, 0})
		}},
		{"random-40", func(tbl *Table, rng *xrand.RNG) { queueRandom(tbl, 1, 40, rng) }},
		{"random-1000", func(tbl *Table, rng *xrand.RNG) { queueRandom(tbl, 1, 1000, rng) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src, dst := newTestTable(t), newTestTable(t)
			tc.fill(src, xrand.New(11))

			want := encodeQueuedOracle(src, 1)
			got := src.AppendQueued(nil, 1)
			if !bytes.Equal(got, want) {
				t.Fatalf("AppendQueued(nil) differs from the old encoder: %d vs %d bytes", len(got), len(want))
			}
			if n := src.QueuedSize(1); n != len(want) {
				t.Fatalf("QueuedSize %d, encoder wrote %d", n, len(want))
			}
			prefix := []byte("prefix")
			withPrefix := src.AppendQueued(append([]byte(nil), prefix...), 1)
			if !bytes.Equal(withPrefix[:len(prefix)], prefix) || !bytes.Equal(withPrefix[len(prefix):], want) {
				t.Fatal("AppendQueued behind a prefix clobbered the prefix or changed the blob")
			}
			exact := make([]byte, 0, len(want))
			if out := src.AppendQueued(exact, 1); &out[0] != &exact[:1][0] {
				t.Error("AppendQueued reallocated a buffer of exactly QueuedSize capacity")
			}

			if err := dst.InjectQueued(1, got); err != nil {
				t.Fatal(err)
			}
			if again := dst.AppendQueued(nil, 1); !bytes.Equal(again, want) {
				t.Fatal("injected queues re-encode to different bytes")
			}
			if src.QueuedCount(1) != dst.QueuedCount(1) {
				t.Fatalf("queued %d, injected %d", src.QueuedCount(1), dst.QueuedCount(1))
			}
		})
	}
}

// TestInjectQueuedRejectsMalformed cuts and corrupts a real blob: every
// variant must fail with ErrBadQueueBlob, never panic or slice out of range.
func TestInjectQueuedRejectsMalformed(t *testing.T) {
	src := newTestTable(t)
	queueRandom(src, 1, 20, xrand.New(5))
	good := src.AppendQueued(nil, 1)

	var bad [][]byte
	for n := 0; n < len(good); n++ { // every truncation
		bad = append(bad, good[:n])
	}
	bad = append(bad, append(append([]byte(nil), good...), 0)) // trailing byte
	for _, off := range []int{0, 4, 8, 12, 16} {               // magic, version, dim, owners, first count
		b := append([]byte(nil), good...)
		b[off] ^= 0xff
		bad = append(bad, b)
	}
	for i, b := range bad {
		if err := newTestTable(t).InjectQueued(1, b); !errors.Is(err, ErrBadQueueBlob) {
			t.Fatalf("malformed blob %d (%d bytes): got %v, want ErrBadQueueBlob", i, len(b), err)
		}
	}
}
