package engine

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"hetgmp/internal/bigraph"
	"hetgmp/internal/cluster"
	"hetgmp/internal/comm"
	"hetgmp/internal/dataset"
	"hetgmp/internal/embed"
	"hetgmp/internal/nn"
	"hetgmp/internal/partition"
)

// distFrameTrainer builds one rank of a 2-rank job over the in-memory mesh
// and runs one real iteration of its worker, so encodeIterationFrame has
// queued updates, a summary and a dense gradient to ship.
func distFrameTrainer(tb testing.TB, rank int) (*Trainer, *worker) {
	tb.Helper()
	ds, err := dataset.New(dataset.Avazu, 1e-4, 17)
	if err != nil {
		tb.Fatal(err)
	}
	train, test := ds.Split(0.9)
	topo, err := cluster.ScaleOut(2)
	if err != nil {
		tb.Fatal(err)
	}
	mesh := comm.NewMemNetwork(2)
	tr, err := NewTrainer(Config{
		Train: train, Test: test,
		Model:          nn.NewWDL(nn.WDLConfig{Fields: train.NumFields, Dim: 8, Hidden: []int{16}, Seed: 5}),
		Dim:            8,
		Topo:           topo,
		Assign:         partition.Random(bigraph.FromDataset(train), 2, 5),
		BatchPerWorker: 64,
		Epochs:         1,
		EvalEvery:      1 << 30,
		Seed:           5,
		Dist:           &DistConfig{Transport: mesh[rank]},
	})
	if err != nil {
		tb.Fatal(err)
	}
	for _, w := range tr.workers {
		w.startEpoch()
	}
	w := tr.workers[rank]
	w.runIteration()
	return tr, w
}

// TestIterationFrameLayout pins the frame against its documented layout:
// the section prefix, each section's size, a split that hands back the very
// bytes each encoder wrote, and the rank's one frame buffer reused by the
// next encode.
func TestIterationFrameLayout(t *testing.T) {
	tr, w := distFrameTrainer(t, 0)
	frame := tr.encodeIterationFrame(w)
	params := len(tr.denseGrad[0])
	sumLen, queuedLen := summarySize(tr.n), tr.table.QueuedSize(0)
	if queuedLen <= 16+4*tr.n {
		t.Fatal("the iteration queued no updates; the frame under test is degenerate")
	}
	if want := iterFrameHeader + sumLen + queuedLen + 4*params; len(frame) != want {
		t.Fatalf("frame is %d bytes, want exactly %d", len(frame), want)
	}
	if got := binary.LittleEndian.Uint32(frame[0:]); int(got) != sumLen {
		t.Errorf("summaryLen prefix %d, want %d", got, sumLen)
	}
	if got := binary.LittleEndian.Uint32(frame[4:]); int(got) != queuedLen {
		t.Errorf("queuedLen prefix %d, want %d", got, queuedLen)
	}
	sum, queued, dense, err := splitIterationFrame(frame, tr.n, params)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sum, appendSummary(nil, w)) {
		t.Error("summary section differs from appendSummary")
	}
	if !bytes.Equal(queued, tr.table.AppendQueued(nil, 0)) {
		t.Error("queued section differs from AppendQueued")
	}
	if !bytes.Equal(dense, appendDense(nil, tr.denseGrad[0])) {
		t.Error("dense section differs from appendDense")
	}
	var s distSummary
	if err := decodeSummary(&s, sum, tr.n); err != nil || s.samples != w.iterSamples || s.loss != w.iterLoss {
		t.Errorf("summary round-trip: %v / %+v", err, s)
	}
	back := make([]float32, params)
	if err := decodeDense(back, dense); err != nil {
		t.Fatal(err)
	}
	for i, v := range tr.denseGrad[0] {
		if back[i] != v {
			t.Fatalf("dense gradient %d: %v round-tripped to %v", i, v, back[i])
		}
	}

	// An idle worker ships no dense section, and its frame is encoded over
	// the busy one's bytes.
	w.resetIdle()
	idle := tr.encodeIterationFrame(w)
	if _, _, dense, err := splitIterationFrame(idle, tr.n, params); err != nil || len(dense) != 0 {
		t.Errorf("idle frame: dense %d bytes, err %v", len(dense), err)
	}
	if &idle[0] != &frame[0] {
		t.Error("the idle frame was encoded into a fresh buffer, not the rank's reused one")
	}
}

// TestSplitIterationFrameRejects feeds the splitter truncated, oversized
// and zero-length frames: each must fail with an error that names the
// sizes, none may panic.
func TestSplitIterationFrameRejects(t *testing.T) {
	const n, params = 2, 5
	sumLen := summarySize(n)
	frame := func(sumPrefix, queuedPrefix uint32, bodyLen int) []byte {
		b := make([]byte, iterFrameHeader+bodyLen)
		binary.LittleEndian.PutUint32(b[0:], sumPrefix)
		binary.LittleEndian.PutUint32(b[4:], queuedPrefix)
		return b
	}
	good := frame(uint32(sumLen), 24, sumLen+24+4*params)
	if _, _, _, err := splitIterationFrame(good, n, params); err != nil {
		t.Fatalf("well-formed frame rejected: %v", err)
	}
	cases := []struct {
		name string
		blob []byte
		want string // substring of the error
	}{
		{"nil", nil, "0 bytes"},
		{"short header", make([]byte, 7), "7 bytes"},
		{"header only", frame(uint32(sumLen), 0, 0), "overrun"},
		{"summary past blob", frame(uint32(sumLen), 0, sumLen-1), "overrun"},
		{"queued past blob", frame(uint32(sumLen), 25, sumLen+24), "overrun"},
		{"lengths overflow u32 sum", frame(0xffffffff, 0xffffffff, sumLen), "overrun"},
		{"zero summary", frame(0, 24, 24), "summary is 0 bytes"},
		{"short summary", frame(uint32(sumLen-4), 24, sumLen+20), "summary is"},
		{"long summary", frame(uint32(sumLen+4), 24, sumLen+28), "summary is"},
		{"dense one float short", good[:len(good)-4], "dense section is 16 bytes"},
		{"dense truncated mid-float", good[:len(good)-1], "dense section is 19 bytes"},
		{"dense oversized", append(append([]byte(nil), good...), 0, 0, 0, 0), "dense section is 24 bytes"},
	}
	for _, tc := range cases {
		_, _, _, err := splitIterationFrame(tc.blob, n, params)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

// TestReplayPeerFrame runs rank 1's real frame through the split-then-replay
// path distIterate uses on rank 0: intact, it lands rank 1's queued updates
// and dense gradient in the ghost worker; with its dense section cut off or
// its queue blob corrupted, replay stops with the decoder's error instead
// of replaying garbage.
func TestReplayPeerFrame(t *testing.T) {
	sender, w1 := distFrameTrainer(t, 1)
	frame := sender.encodeIterationFrame(w1)
	params := len(sender.denseGrad[1])

	corruptQueue := append([]byte(nil), frame...)
	corruptQueue[iterFrameHeader+summarySize(sender.n)] ^= 0xff // the queue blob's magic
	cases := []struct {
		name  string
		frame []byte
		check func(t *testing.T, tr *Trainer, err error)
	}{
		{"intact", frame, func(t *testing.T, tr *Trainer, err error) {
			if err != nil {
				t.Fatal(err)
			}
			if got, want := tr.table.QueuedCount(1), sender.table.QueuedCount(1); got != want || want == 0 {
				t.Errorf("ghost shard holds %d queued updates, sender queued %d", got, want)
			}
			if !bytes.Equal(tr.table.AppendQueued(nil, 1), sender.table.AppendQueued(nil, 1)) {
				t.Error("ghost shard's queues differ from the sender's")
			}
			for i, v := range sender.denseGrad[1] {
				if tr.denseGrad[1][i] != v {
					t.Fatalf("ghost dense gradient %d: %v, sender has %v", i, tr.denseGrad[1][i], v)
				}
			}
			if g := tr.workers[1]; g.iterSamples != w1.iterSamples || g.iterLoss != w1.iterLoss || g.cursor != w1.cursor {
				t.Errorf("ghost worker state %d/%v/%d, sender %d/%v/%d",
					g.iterSamples, g.iterLoss, g.cursor, w1.iterSamples, w1.iterLoss, w1.cursor)
			}
		}},
		{"busy peer without dense section", frame[:len(frame)-4*params], func(t *testing.T, _ *Trainer, err error) {
			if err == nil || !strings.Contains(err.Error(), "dense gradient blob is 0 bytes") {
				t.Errorf("got %v, want the dense decoder's length error", err)
			}
		}},
		{"corrupt queue blob", corruptQueue, func(t *testing.T, _ *Trainer, err error) {
			if !errors.Is(err, embed.ErrBadQueueBlob) {
				t.Errorf("got %v, want ErrBadQueueBlob", err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr, _ := distFrameTrainer(t, 0)
			sum, queued, dense, err := splitIterationFrame(tc.frame, tr.n, params)
			if err != nil {
				t.Fatal(err)
			}
			tc.check(t, tr, tr.replayPeer(1, sum, queued, dense))
		})
	}
}

// FuzzIterationFrame holds splitIterationFrame to its contract on arbitrary
// bytes: it never panics or slices out of range, and whatever it accepts
// tiles the blob exactly into sections of the sizes the job expects, which
// the section decoders then take without a length error.
func FuzzIterationFrame(f *testing.F) {
	tr, w := distFrameTrainer(f, 0)
	n, params := tr.n, len(tr.denseGrad[0])
	real := tr.encodeIterationFrame(w)
	f.Add(real)
	f.Add(real[:len(real)-4*params]) // idle-shaped: no dense section
	f.Add(real[:len(real)/2])
	f.Add(real[:iterFrameHeader])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, blob []byte) {
		sum, queued, dense, err := splitIterationFrame(blob, n, params)
		if err != nil {
			return
		}
		if iterFrameHeader+len(sum)+len(queued)+len(dense) != len(blob) {
			t.Fatalf("sections %d+%d+%d do not tile the %d-byte frame", len(sum), len(queued), len(dense), len(blob))
		}
		var s distSummary
		if err := decodeSummary(&s, sum, n); err != nil {
			t.Fatalf("accepted summary failed to decode: %v", err)
		}
		if len(dense) != 0 {
			if err := decodeDense(make([]float32, params), dense); err != nil {
				t.Fatalf("accepted dense section failed to decode: %v", err)
			}
		}
	})
}
