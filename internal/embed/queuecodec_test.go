package embed

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"
	"unsafe"

	"hetgmp/internal/lefloat"
	"hetgmp/internal/optim"
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
// queues entry for entry in a peer table's ghost shard, from an aligned
// blob (filed by reference where the host allows) and a misaligned one
// (decoded into the shard's arena).
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
			if lefloat.View(got[:4]) != nil {
				for o, q := range dst.shards[1].queues {
					for i, u := range q {
						if !aliases(got, u.delta) {
							t.Fatalf("owner %d entry %d: an aligned blob's delta was copied, not viewed", o, i)
						}
					}
				}
			}

			misaligned := append([]byte{0}, got...)[1:]
			copied := newTestTable(t)
			if err := copied.InjectQueued(1, misaligned); err != nil {
				t.Fatal(err)
			}
			if again := copied.AppendQueued(nil, 1); !bytes.Equal(again, want) {
				t.Fatal("queues injected from a misaligned blob re-encode to different bytes")
			}
		})
	}
}

// aliases reports whether v's memory lies inside b's.
func aliases(b []byte, v []float32) bool {
	if len(v) == 0 {
		return false
	}
	lo, hi := uintptr(unsafe.Pointer(&b[0])), uintptr(unsafe.Pointer(&b[len(b)-1]))
	p := uintptr(unsafe.Pointer(&v[0]))
	return lo <= p && p <= hi
}

// TestInjectQueuedRejectsWholeBlob corrupts only a blob's last entry: the
// inject must fail with ErrBadQueueBlob and leave the ghost shard exactly as
// it was — none of the valid entries before the bad one may be filed, or
// the next Commit would apply half a peer's iteration.
func TestInjectQueuedRejectsWholeBlob(t *testing.T) {
	src := newTestTable(t)
	queueRandom(src, 1, 20, xrand.New(9))
	good := src.AppendQueued(nil, 1)
	dst := newTestTable(t)
	if err := dst.InjectQueued(1, good); err != nil { // already queued entries stay
		t.Fatal(err)
	}
	before := dst.AppendQueued(nil, 1)

	for _, corrupt := range []struct {
		name string
		x    uint32
	}{
		{"feature out of range", uint32(src.cfg.NumFeatures)},
		{"feature of another owner", 0}, // the last entry sits in owner 1's bucket; feature 0 is owner 0's
	} {
		bad := append([]byte(nil), good...)
		last := len(bad) - (8 + 4*src.dim)
		if src.assign.PrimaryOf[int32(binary.LittleEndian.Uint32(bad[last:]))] != 1 {
			t.Fatal("the blob's last entry is not in owner 1's bucket; the case is degenerate")
		}
		binary.LittleEndian.PutUint32(bad[last:], corrupt.x)
		if err := dst.InjectQueued(1, bad); !errors.Is(err, ErrBadQueueBlob) {
			t.Fatalf("%s: got %v, want ErrBadQueueBlob", corrupt.name, err)
		}
		if after := dst.AppendQueued(nil, 1); !bytes.Equal(after, before) {
			t.Fatalf("%s: the rejected blob changed the shard's queues", corrupt.name)
		}
	}
	if dst.QueuedCount(1) != src.QueuedCount(1) {
		t.Fatalf("the shard holds %d queued updates, want the %d of the accepted blob", dst.QueuedCount(1), src.QueuedCount(1))
	}
}

// FuzzInjectQueued holds InjectQueued to its contract on arbitrary bytes:
// it either rejects them with ErrBadQueueBlob, leaving the shard empty, or
// accepts them, and then the queues it filed re-encode byte for byte — from
// the blob and from a misaligned copy of it — and the Commit that drains
// them does not panic. The header's dim picks the table (4, 8 or 32 wide).
func FuzzInjectQueued(f *testing.F) {
	tables := map[uint32]*Table{}
	for _, dim := range []int{4, 8, 32} {
		tbl := newDimTable(f, dim)
		tables[uint32(dim)] = tbl
		src := newDimTable(f, dim)
		queueRandom(src, 1, 12, xrand.New(uint64(dim)))
		blob := src.AppendQueued(nil, 1)
		for _, n := range []int{len(blob), len(blob) - 1, len(blob) / 2, 20, 16, 0} {
			f.Add(blob[:n])
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tbl := tables[4]
		if len(data) >= 12 && tables[binary.LittleEndian.Uint32(data[8:])] != nil {
			tbl = tables[binary.LittleEndian.Uint32(data[8:])]
		}
		for _, blob := range [][]byte{data, append([]byte{0}, data...)[1:]} {
			err := tbl.InjectQueued(1, blob)
			if err != nil {
				if !errors.Is(err, ErrBadQueueBlob) {
					t.Fatalf("rejected with %v, want ErrBadQueueBlob", err)
				}
				if n := tbl.QueuedCount(1); n != 0 {
					t.Fatalf("a rejected blob left %d queued updates", n)
				}
				return
			}
			if again := tbl.AppendQueued(nil, 1); !bytes.Equal(again, data) {
				t.Fatalf("an accepted %d-byte blob re-encodes to %d different bytes", len(data), len(again))
			}
			tbl.Commit()
		}
	})
}

// newDimTable is newTestTable at another embedding width.
func newDimTable(tb testing.TB, dim int) *Table {
	tb.Helper()
	tbl, err := NewTable(Config{
		NumFeatures: 6,
		Dim:         dim,
		Assign:      testAssign(),
		Freq:        []int32{10, 1, 1, 5, 1, 1},
		Optimizer:   optim.NewSGD(1),
		LocalLR:     1,
		Seed:        3,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return tbl
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
