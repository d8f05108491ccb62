// Package conformance is the table-driven contract suite every
// comm.Transport backend must pass. A backend plugs in via a Factory that
// builds a connected n-rank mesh; the suite then verifies the properties
// the distributed engine depends on — message round-trips, per-link FIFO
// ordering, byte-ledger totals identical across backends, concurrent-sender
// safety (run it under -race), the payload lifetime contract (a sender may
// reuse its payload once Send returns; a receiver owns its payload until it
// Releases it), typed fault surfacing on peer close, and the Coordinator's
// collective protocol. The companion oracle test
// (oracle_test.go) closes the loop end to end: a multi-rank training run
// over any conforming backend must be bit-identical to the single-process
// simulation.
package conformance

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"hetgmp/internal/comm"
)

// Factory builds a connected n-rank mesh of the backend under test. The
// returned transports are closed by the suite.
type Factory func(t *testing.T, n int) []comm.Transport

// Run executes the full conformance suite against one backend.
func Run(t *testing.T, name string, factory Factory) {
	t.Run(name+"/RoundTrip", func(t *testing.T) { testRoundTrip(t, factory) })
	t.Run(name+"/Ordering", func(t *testing.T) { testOrdering(t, factory) })
	t.Run(name+"/LedgerTotals", func(t *testing.T) { testLedgerTotals(t, factory) })
	t.Run(name+"/LinkLedger", func(t *testing.T) { testLinkLedger(t, factory) })
	t.Run(name+"/ConcurrentSenders", func(t *testing.T) { testConcurrentSenders(t, factory) })
	t.Run(name+"/SenderReusesPayload", func(t *testing.T) { testSenderReusesPayload(t, factory) })
	t.Run(name+"/ReleasedPayloads", func(t *testing.T) { testReleasedPayloads(t, factory) })
	t.Run(name+"/SendValidation", func(t *testing.T) { testSendValidation(t, factory) })
	t.Run(name+"/RecvTimeout", func(t *testing.T) { testRecvTimeout(t, factory) })
	t.Run(name+"/PeerClose", func(t *testing.T) { testPeerClose(t, factory) })
	t.Run(name+"/LocalClose", func(t *testing.T) { testLocalClose(t, factory) })
	t.Run(name+"/ExchangeBarrier", func(t *testing.T) { testExchangeBarrier(t, factory) })
}

// guard bounds a test body so a contract violation surfaces as a failure,
// never a hang.
func guard(t *testing.T, d time.Duration, body func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		body()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("test body did not finish within %v — transport hung instead of surfacing an error", d)
	}
}

func closeAll(ts []comm.Transport) {
	for _, tr := range ts {
		tr.Close()
	}
}

// testRoundTrip sends one message of every type (including empty and
// multi-kB payloads) across every ordered pair and checks type, sequence
// and payload survive intact. Every send reuses one scratch buffer, and
// every received payload goes back to its transport.
func testRoundTrip(t *testing.T, factory Factory) {
	ts := factory(t, 3)
	defer closeAll(ts)
	guard(t, 30*time.Second, func() {
		payloads := [][]byte{
			nil,
			{0xde},
			bytes.Repeat([]byte{0xa5, 0x00, 0xff}, 1024),
		}
		var scratch []byte
		for src := range ts {
			for dst := range ts {
				if src == dst {
					continue
				}
				for mt := 0; mt < comm.NumMsgTypes; mt++ {
					for pi, p := range payloads {
						seq := uint64(src*1000 + dst*100 + mt*10 + pi)
						scratch = append(scratch[:0], p...)
						if err := ts[src].Send(dst, &comm.Message{Type: comm.MsgType(mt), Seq: seq, Payload: scratch}); err != nil {
							t.Fatalf("send %d→%d type %d: %v", src, dst, mt, err)
						}
						m, err := ts[dst].Recv(src)
						if err != nil {
							t.Fatalf("recv %d→%d type %d: %v", src, dst, mt, err)
						}
						if m.Type != comm.MsgType(mt) || m.Seq != seq || !bytes.Equal(m.Payload, p) {
							t.Fatalf("round-trip %d→%d corrupted: got type %v seq %d payload %d bytes, want type %v seq %d payload %d bytes",
								src, dst, m.Type, m.Seq, len(m.Payload), comm.MsgType(mt), seq, len(p))
						}
						ts[dst].Release(src, m.Payload)
					}
				}
			}
		}
	})
}

// pattern fills a payload whose every byte depends on its message index,
// so a payload overwritten by a later message cannot pass for its own.
func pattern(i, n int) []byte {
	b := make([]byte, n)
	for j := range b {
		b[j] = byte(i*31 + j)
	}
	return b
}

// testSenderReusesPayload holds Send to "done with the payload when it
// returns": the sender overwrites one buffer with every message of a
// burst, all before the receiver pops any, and every message must still
// arrive with the bytes it had at its Send.
func testSenderReusesPayload(t *testing.T, factory Factory) {
	const burst, size = 16, 4096
	ts := factory(t, 2)
	defer closeAll(ts)
	guard(t, 30*time.Second, func() {
		buf := make([]byte, size)
		for i := 0; i < burst; i++ {
			copy(buf, pattern(i, size))
			if err := ts[0].Send(1, &comm.Message{Type: comm.MsgGradPush, Seq: uint64(i), Payload: buf}); err != nil {
				t.Fatalf("send %d: %v", i, err)
			}
		}
		clear(buf)
		for i := 0; i < burst; i++ {
			m, err := ts[1].Recv(0)
			if err != nil {
				t.Fatalf("recv %d: %v", i, err)
			}
			if !bytes.Equal(m.Payload, pattern(i, size)) {
				t.Fatalf("message %d arrived with bytes the sender wrote after its Send", i)
			}
		}
	})
}

// testReleasedPayloads holds the receive side of the lifetime contract. A
// payload released twice, or a slice the transport never lent, must not
// let one buffer back two held payloads. And a receiver that holds each
// payload across its next receive, releasing it only after reading it,
// must read every one intact — under -race, a transport that received into
// a buffer still held would also be reported as a data race.
func testReleasedPayloads(t *testing.T, factory Factory) {
	const size, stream = 2048, 200
	ts := factory(t, 2)
	defer closeAll(ts)
	guard(t, 30*time.Second, func() {
		send := func(i int) {
			t.Helper()
			if err := ts[0].Send(1, &comm.Message{Type: comm.MsgGradPush, Seq: uint64(i), Payload: pattern(i, size)}); err != nil {
				t.Fatalf("send %d: %v", i, err)
			}
		}
		recv := func(i int) []byte {
			t.Helper()
			m, err := ts[1].Recv(0)
			if err != nil {
				t.Fatalf("recv %d: %v", i, err)
			}
			if !bytes.Equal(m.Payload, pattern(i, size)) {
				t.Fatalf("message %d arrived corrupted", i)
			}
			return m.Payload
		}

		send(0)
		a := recv(0)
		ts[1].Release(0, a)
		ts[1].Release(0, a)                    // twice
		ts[1].Release(0, make([]byte, 2*size)) // never lent
		ts[1].Release(5, a)                    // no such peer
		send(1)
		b := recv(1)
		send(2)
		c := recv(2)
		if &b[0] == &c[0] {
			t.Fatal("a buffer released twice was lent to two held payloads")
		}
		if !bytes.Equal(b, pattern(1, size)) {
			t.Fatal("a held payload was overwritten by a later message")
		}
		ts[1].Release(0, b)
		ts[1].Release(0, c)

		go func() {
			for i := 3; i < 3+stream; i++ {
				if err := ts[0].Send(1, &comm.Message{Type: comm.MsgGradPush, Seq: uint64(i), Payload: pattern(i, size)}); err != nil {
					t.Errorf("send %d: %v", i, err)
					return
				}
			}
		}()
		var held []byte
		for i := 3; i < 3+stream; i++ {
			m, err := ts[1].Recv(0)
			if err != nil {
				t.Fatalf("recv %d: %v", i, err)
			}
			if held != nil {
				if !bytes.Equal(held, pattern(i-1, size)) {
					t.Fatalf("message %d changed while held across the next receive", i-1)
				}
				ts[1].Release(0, held)
			}
			held = m.Payload
		}
	})
}

// testOrdering checks per-link FIFO: a burst on every ordered link must
// arrive in send order, even with all links active at once.
func testOrdering(t *testing.T, factory Factory) {
	const burst = 500
	ts := factory(t, 3)
	defer closeAll(ts)
	guard(t, 30*time.Second, func() {
		var wg sync.WaitGroup
		for src := range ts {
			wg.Add(1)
			go func(src int) {
				defer wg.Done()
				for i := 0; i < burst; i++ {
					for dst := range ts {
						if dst == src {
							continue
						}
						p := []byte{byte(i), byte(i >> 8), byte(src)}
						if err := ts[src].Send(dst, &comm.Message{Type: comm.MsgGradPush, Seq: uint64(i), Payload: p}); err != nil {
							t.Errorf("send %d→%d #%d: %v", src, dst, i, err)
							return
						}
					}
				}
			}(src)
		}
		for dst := range ts {
			for src := range ts {
				if src == dst {
					continue
				}
				for i := 0; i < burst; i++ {
					m, err := ts[dst].Recv(src)
					if err != nil {
						t.Fatalf("recv %d→%d #%d: %v", src, dst, i, err)
					}
					if m.Seq != uint64(i) {
						t.Fatalf("link %d→%d out of order: got seq %d at position %d", src, dst, m.Seq, i)
					}
				}
			}
		}
		wg.Wait()
	})
}

// testLedgerTotals sends a fixed message sequence and checks both ends'
// ledgers against the exact per-type counts and FrameSize-priced bytes —
// the invariant that makes accounting identical across backends.
func testLedgerTotals(t *testing.T, factory Factory) {
	ts := factory(t, 2)
	defer closeAll(ts)
	guard(t, 30*time.Second, func() {
		sizes := map[comm.MsgType][]int{
			comm.MsgControl:   {0},
			comm.MsgClockSync: {16, 64},
			comm.MsgGradPush:  {128, 1 << 12},
			comm.MsgEmbedPull: {256},
			comm.MsgAllReduce: {1 << 16},
		}
		var wantMsgs, wantBytes [comm.NumMsgTypes]int64
		total := 0
		for mt, ss := range sizes {
			for _, s := range ss {
				if err := ts[0].Send(1, &comm.Message{Type: mt, Payload: make([]byte, s)}); err != nil {
					t.Fatal(err)
				}
				wantMsgs[mt]++
				wantBytes[mt] += comm.FrameSize(s)
				total++
			}
		}
		for i := 0; i < total; i++ {
			if _, err := ts[1].Recv(0); err != nil {
				t.Fatal(err)
			}
		}
		sent := ts[0].Stats()
		recv := ts[1].Stats()
		for mt := 0; mt < comm.NumMsgTypes; mt++ {
			if sent.SentMsgs[mt] != wantMsgs[mt] || sent.SentBytes[mt] != wantBytes[mt] {
				t.Errorf("sender ledger type %v: %d msgs / %d bytes, want %d / %d",
					comm.MsgType(mt), sent.SentMsgs[mt], sent.SentBytes[mt], wantMsgs[mt], wantBytes[mt])
			}
			if recv.RecvMsgs[mt] != wantMsgs[mt] || recv.RecvBytes[mt] != wantBytes[mt] {
				t.Errorf("receiver ledger type %v: %d msgs / %d bytes, want %d / %d",
					comm.MsgType(mt), recv.RecvMsgs[mt], recv.RecvBytes[mt], wantMsgs[mt], wantBytes[mt])
			}
		}
		if m, b := recv.TotalSent(); m != 0 || b != 0 {
			t.Errorf("idle endpoint reports %d sent msgs / %d bytes", m, b)
		}
	})
}

// testLinkLedger sends an asymmetric fixed pattern across a 3-rank mesh and
// checks the per-peer ledger at both ends of every link: the sender's
// sent-to-peer cell must equal the receiver's recv-from-peer cell
// (reciprocity — the invariant MergeCluster verifies across real rank
// reports), and the per-link cells must sum to the aggregate Stats totals.
func testLinkLedger(t *testing.T, factory Factory) {
	ts := factory(t, 3)
	defer closeAll(ts)
	guard(t, 30*time.Second, func() {
		// pattern[src][dst] lists payload sizes sent on that link. Asymmetric
		// on purpose: every link carries a different byte total, including one
		// silent link (2→0), so a transposed or mis-indexed ledger cannot pass.
		pattern := [3][3][]int{
			0: {1: {0, 64}, 2: {128}},
			1: {0: {16}, 2: {256, 512, 1 << 10}},
			2: {1: {32}},
		}
		var wantMsgs, wantBytes [3][3]int64
		for src := range pattern {
			for dst, sizes := range pattern[src] {
				for _, s := range sizes {
					if err := ts[src].Send(dst, &comm.Message{Type: comm.MsgGradPush, Payload: make([]byte, s)}); err != nil {
						t.Fatal(err)
					}
					wantMsgs[src][dst]++
					wantBytes[src][dst] += comm.FrameSize(s)
				}
				for range sizes {
					if _, err := ts[dst].Recv(src); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		for r := range ts {
			links := ts[r].LinkStats()
			if len(links) != 3 {
				t.Fatalf("rank %d: LinkStats has %d entries, want 3 (one per rank)", r, len(links))
			}
			var sm, sb, rm, rb int64
			for p, l := range links {
				if l.Peer != p {
					t.Errorf("rank %d: LinkStats[%d].Peer = %d, want %d", r, p, l.Peer, p)
				}
				if l.SentMsgs != wantMsgs[r][p] || l.SentBytes != wantBytes[r][p] {
					t.Errorf("rank %d link →%d: sent %d msgs / %d bytes, want %d / %d",
						r, p, l.SentMsgs, l.SentBytes, wantMsgs[r][p], wantBytes[r][p])
				}
				if l.RecvMsgs != wantMsgs[p][r] || l.RecvBytes != wantBytes[p][r] {
					t.Errorf("rank %d link ←%d: recv %d msgs / %d bytes, want %d / %d",
						r, p, l.RecvMsgs, l.RecvBytes, wantMsgs[p][r], wantBytes[p][r])
				}
				sm, sb, rm, rb = sm+l.SentMsgs, sb+l.SentBytes, rm+l.RecvMsgs, rb+l.RecvBytes
			}
			st := ts[r].Stats()
			if m, b := st.TotalSent(); m != sm || b != sb {
				t.Errorf("rank %d: links sum to %d sent msgs / %d bytes, Stats says %d / %d", r, sm, sb, m, b)
			}
			if m, b := st.TotalRecv(); m != rm || b != rb {
				t.Errorf("rank %d: links sum to %d recv msgs / %d bytes, Stats says %d / %d", r, rm, rb, m, b)
			}
		}
	})
}

// testConcurrentSenders hammers one receiver from many goroutines on many
// ranks; under -race this is the data-race soak for Send. Totals must
// account for every message exactly once.
func testConcurrentSenders(t *testing.T, factory Factory) {
	const senders, perSender = 8, 200
	ts := factory(t, 3)
	defer closeAll(ts)
	guard(t, 60*time.Second, func() {
		var wg sync.WaitGroup
		for src := 1; src < 3; src++ {
			for g := 0; g < senders; g++ {
				wg.Add(1)
				go func(src, g int) {
					defer wg.Done()
					for i := 0; i < perSender; i++ {
						m := &comm.Message{Type: comm.MsgGradPush, Seq: uint64(g), Payload: []byte{byte(g), byte(i)}}
						if err := ts[src].Send(0, m); err != nil {
							t.Errorf("concurrent send rank %d goroutine %d: %v", src, g, err)
							return
						}
					}
				}(src, g)
			}
		}
		wg.Wait()
		got := 0
		for src := 1; src < 3; src++ {
			for i := 0; i < senders*perSender; i++ {
				if _, err := ts[0].Recv(src); err != nil {
					t.Fatalf("recv from %d after %d messages: %v", src, i, err)
				}
				got++
			}
		}
		if want := 2 * senders * perSender; got != want {
			t.Fatalf("received %d messages, want %d", got, want)
		}
		st := ts[0].Stats()
		if m, _ := st.TotalRecv(); m != int64(2*senders*perSender) {
			t.Fatalf("receiver ledger counts %d msgs, want %d", m, 2*senders*perSender)
		}
	})
}

// testSendValidation checks a backend rejects what the wire format cannot
// carry, with the shared typed errors.
func testSendValidation(t *testing.T, factory Factory) {
	ts := factory(t, 2)
	defer closeAll(ts)
	guard(t, 30*time.Second, func() {
		if err := ts[0].Send(1, &comm.Message{Type: comm.MsgType(comm.NumMsgTypes)}); !errors.Is(err, comm.ErrBadType) {
			t.Errorf("unknown type: got %v, want ErrBadType", err)
		}
		if err := ts[0].Send(7, &comm.Message{Type: comm.MsgControl}); err == nil {
			t.Error("send outside the mesh succeeded")
		}
		// Oversized payloads must be rejected without materialising a frame.
		huge := &comm.Message{Type: comm.MsgGradPush, Payload: make([]byte, comm.MaxPayload+1)}
		if err := ts[0].Send(1, huge); !errors.Is(err, comm.ErrFrameTooLarge) {
			t.Errorf("oversized payload: got %v, want ErrFrameTooLarge", err)
		}
		if m, b := ts[0].Stats().TotalSent(); m != 0 || b != 0 {
			t.Errorf("rejected sends were ledgered: %d msgs / %d bytes", m, b)
		}
	})
}

// testRecvTimeout checks a bounded Recv on a silent link returns
// ErrTimeout instead of blocking forever.
func testRecvTimeout(t *testing.T, factory Factory) {
	ts := factory(t, 2)
	defer closeAll(ts)
	guard(t, 30*time.Second, func() {
		ts[0].SetRecvTimeout(50 * time.Millisecond)
		start := time.Now()
		_, err := ts[0].Recv(1)
		if !errors.Is(err, comm.ErrTimeout) {
			t.Fatalf("silent link: got %v, want ErrTimeout", err)
		}
		if time.Since(start) > 10*time.Second {
			t.Fatal("timeout fired far past its bound")
		}
		// Disabling the bound and delivering a message must still work.
		ts[0].SetRecvTimeout(0)
		if err := ts[1].Send(0, &comm.Message{Type: comm.MsgControl, Seq: 9}); err != nil {
			t.Fatal(err)
		}
		m, err := ts[0].Recv(1)
		if err != nil || m.Seq != 9 {
			t.Fatalf("recv after timeout reset: %v / %+v", err, m)
		}
	})
}

// testPeerClose closes one endpoint and requires every peer to observe a
// typed ErrPeerClosed (with the peer attributed via *comm.PeerError) on
// its link — never a hang. Queued messages must still drain first.
func testPeerClose(t *testing.T, factory Factory) {
	ts := factory(t, 3)
	defer closeAll(ts)
	guard(t, 30*time.Second, func() {
		// Rank 0 sends one message to rank 1, then closes.
		if err := ts[0].Send(1, &comm.Message{Type: comm.MsgClockSync, Seq: 5}); err != nil {
			t.Fatal(err)
		}
		// Make sure the frame is on rank 1's side before the close races it.
		deadline := time.Now().Add(10 * time.Second)
		for {
			if m, _ := ts[1].Stats().TotalRecv(); m > 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("frame never arrived at peer")
			}
			time.Sleep(time.Millisecond)
		}
		ts[0].Close()

		// The queued message drains, then the fault surfaces.
		m, err := ts[1].Recv(0)
		if err != nil || m.Seq != 5 {
			t.Fatalf("queued message lost on close: %v / %+v", err, m)
		}
		for _, dst := range []int{1, 2} {
			ts[dst].SetRecvTimeout(10 * time.Second)
			_, err := ts[dst].Recv(0)
			if !errors.Is(err, comm.ErrPeerClosed) {
				t.Fatalf("rank %d link from closed peer: got %v, want ErrPeerClosed", dst, err)
			}
			var pe *comm.PeerError
			if !errors.As(err, &pe) || pe.Peer != 0 {
				t.Fatalf("rank %d: fault not attributed to peer 0: %v", dst, err)
			}
		}
	})
}

// testLocalClose checks Close unblocks this endpoint's own pending
// receives with ErrClosed and fails subsequent sends.
func testLocalClose(t *testing.T, factory Factory) {
	ts := factory(t, 2)
	defer closeAll(ts)
	guard(t, 30*time.Second, func() {
		errc := make(chan error, 1)
		go func() {
			_, err := ts[0].Recv(1)
			errc <- err
		}()
		time.Sleep(20 * time.Millisecond) // let the Recv block
		ts[0].Close()
		if err := <-errc; !errors.Is(err, comm.ErrClosed) {
			t.Fatalf("pending recv after local close: got %v, want ErrClosed", err)
		}
		if err := ts[0].Send(1, &comm.Message{Type: comm.MsgControl}); !errors.Is(err, comm.ErrClosed) {
			t.Fatalf("send after local close: got %v, want ErrClosed", err)
		}
	})
}

// testExchangeBarrier drives the Coordinator's all-gather over the backend:
// every rank must see every rank's payload at the right index, across
// repeated rounds, and Barrier must release only when all ranks arrive.
func testExchangeBarrier(t *testing.T, factory Factory) {
	const n, rounds = 4, 25
	ts := factory(t, n)
	defer closeAll(ts)
	guard(t, 60*time.Second, func() {
		var wg sync.WaitGroup
		for r := 0; r < n; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				coord := comm.NewCoordinator(ts[r])
				for round := 0; round < rounds; round++ {
					payload := []byte(fmt.Sprintf("rank %d round %d", r, round))
					got, err := coord.Exchange(comm.MsgClockSync, payload)
					if err != nil {
						t.Errorf("rank %d round %d: %v", r, round, err)
						return
					}
					for p := 0; p < n; p++ {
						want := fmt.Sprintf("rank %d round %d", p, round)
						if string(got[p]) != want {
							t.Errorf("rank %d round %d: slot %d holds %q, want %q", r, round, p, got[p], want)
							return
						}
					}
					coord.Release(got)
					if err := coord.Barrier(); err != nil {
						t.Errorf("rank %d round %d barrier: %v", r, round, err)
						return
					}
				}
			}(r)
		}
		wg.Wait()
	})
}
