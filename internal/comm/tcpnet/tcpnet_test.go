package tcpnet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hetgmp/internal/comm"
)

// mesh connects n ranks over loopback inside the test process: every rank
// pre-binds port 0 so the peer list is known before any rank connects.
func mesh(tb testing.TB, n int) []*Transport {
	tb.Helper()
	listeners := make([]net.Listener, n)
	peers := make([]string, n)
	for r := range listeners {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			tb.Fatal(err)
		}
		listeners[r], peers[r] = lis, lis.Addr().String()
	}
	ts := make([]*Transport, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := range ts {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ts[r], errs[r] = Connect(Config{Rank: r, Peers: peers, Listener: listeners[r], DialTimeout: 10 * time.Second})
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			tb.Fatalf("rank %d connect: %v", r, err)
		}
	}
	tb.Cleanup(func() {
		for _, tr := range ts {
			tr.Close()
		}
	})
	return ts
}

// TestSendThenCloseDelivers pins "Send returned ⇒ the frame is in the
// kernel", the property that replaced flush-on-close: a rank that sends and
// closes at once loses nothing, however large the frame.
func TestSendThenCloseDelivers(t *testing.T) {
	for _, size := range []int{0, 1, 100 << 10, 2 << 20} {
		ts := mesh(t, 2)
		ts[1].SetRecvTimeout(10 * time.Second)
		payload := bytes.Repeat([]byte{0xa5}, size)
		if err := ts[0].Send(1, &comm.Message{Type: comm.MsgGradPush, Seq: 7, Payload: payload}); err != nil {
			t.Fatal(err)
		}
		ts[0].Close()
		m, err := ts[1].Recv(0)
		if err != nil {
			t.Fatalf("%d-byte frame sent before Close was lost: %v", size, err)
		}
		if m.Seq != 7 || !bytes.Equal(m.Payload, payload) {
			t.Fatalf("%d-byte frame corrupted: seq %d, %d bytes", size, m.Seq, len(m.Payload))
		}
		if _, err := ts[1].Recv(0); !errors.Is(err, comm.ErrPeerClosed) {
			t.Fatalf("after the last frame: got %v, want ErrPeerClosed", err)
		}
	}
}

// TestBothSendBeforeEitherReceives is the collective layer's send-all-then-
// receive-all round at a size no socket buffer holds: both ranks push
// 8 × 4 MiB before either calls Recv. Inline writes block on full kernel
// buffers, and only the peers' reader goroutines draining into the
// unbounded inboxes — with no application in Recv — lets both finish.
func TestBothSendBeforeEitherReceives(t *testing.T) {
	const frames, size = 8, 4 << 20
	ts := mesh(t, 2)
	done := make(chan error, 2)
	for r := 0; r < 2; r++ {
		go func(r int) {
			// The transport only reads a payload, so one buffer serves
			// every frame of this rank.
			payload := bytes.Repeat([]byte{byte(r + 1)}, size)
			for i := 0; i < frames; i++ {
				if err := ts[r].Send(1-r, &comm.Message{Type: comm.MsgGradPush, Seq: uint64(i), Payload: payload}); err != nil {
					done <- fmt.Errorf("rank %d send %d: %w", r, i, err)
					return
				}
			}
			done <- nil
		}(r)
	}
	for i := 0; i < 2; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(60 * time.Second):
			t.Fatal("senders deadlocked: neither rank finished sending while nobody received")
		}
	}
	for r := 0; r < 2; r++ {
		ts[r].SetRecvTimeout(10 * time.Second)
		for i := 0; i < frames; i++ {
			m, err := ts[r].Recv(1 - r)
			if err != nil {
				t.Fatalf("rank %d recv %d: %v", r, i, err)
			}
			if m.Seq != uint64(i) || len(m.Payload) != size || m.Payload[0] != byte(2-r) || m.Payload[size-1] != byte(2-r) {
				t.Fatalf("rank %d frame %d corrupted: seq %d, %d bytes", r, i, m.Seq, len(m.Payload))
			}
		}
	}
}

// silentPeer connects rank 0 of a 2-rank mesh to a fake rank 1 that
// completes the hello and then holds its socket open without ever reading.
// The returned stop releases the fake peer and reports its error.
func silentPeer(t *testing.T) (tr *Transport, stop func() error) {
	t.Helper()
	lis0, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lis1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	fakeDone := make(chan error, 1)
	go func() {
		defer lis1.Close()
		sock, err := lis1.Accept()
		if err != nil {
			fakeDone <- err
			return
		}
		defer sock.Close()
		if _, err := readHello(sock, 2); err != nil {
			fakeDone <- err
			return
		}
		if err := writeHello(sock, 1, 2); err != nil {
			fakeDone <- err
			return
		}
		<-release
		fakeDone <- nil
	}()
	tr, err = Connect(Config{Rank: 0, Peers: []string{lis0.Addr().String(), lis1.Addr().String()}, Listener: lis0, DialTimeout: 10 * time.Second})
	if err != nil {
		close(release)
		t.Fatal(err)
	}
	return tr, func() error {
		close(release)
		return <-fakeDone
	}
}

// TestSendToPeerThatNeverReads: a peer completes the hello and then never
// reads. Sends past the socket buffers must come back as a *comm.PeerError
// over ErrTimeout within the configured bound — never hang — the fault must
// surface typed on Recv and on later Sends too, and Close must leave no
// goroutine behind.
func TestSendToPeerThatNeverReads(t *testing.T) {
	baseline := runtime.NumGoroutine()
	tr, stop := silentPeer(t)
	const bound = 300 * time.Millisecond
	tr.SetRecvTimeout(bound)

	payload := make([]byte, 1<<20)
	var sendErr error
	start := time.Now()
	sent := 0
	for ; sent < 256 && sendErr == nil; sent++ { // far more than loopback buffers hold
		sendErr = tr.Send(1, &comm.Message{Type: comm.MsgGradPush, Seq: uint64(sent), Payload: payload})
	}
	var pe *comm.PeerError
	if !errors.As(sendErr, &pe) || pe.Peer != 1 || !errors.Is(sendErr, comm.ErrTimeout) {
		t.Fatalf("after %d sends to a peer that never reads: got %v, want a *comm.PeerError for peer 1 over ErrTimeout", sent, sendErr)
	}
	if took := time.Since(start); took > 20*bound {
		t.Fatalf("blocked send took %v to fail under a %v bound", took, bound)
	}
	if msgs, _ := tr.Stats().TotalSent(); msgs != int64(sent-1) {
		t.Errorf("ledger counts %d sent frames, %d sends succeeded", msgs, sent-1)
	}
	if _, err := tr.Recv(1); !errors.As(err, &pe) || pe.Peer != 1 {
		t.Fatalf("recv after the failed send: got %v, want a *comm.PeerError for peer 1", err)
	}
	if err := tr.Send(1, &comm.Message{Type: comm.MsgControl}); !errors.As(err, &pe) {
		t.Fatalf("send on the failed link: got %v, want a *comm.PeerError", err)
	}

	tr.Close()
	if err := stop(); err != nil {
		t.Fatalf("fake peer: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after Close, %d before Connect:\n%s", runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCloseReleasesBlockedSend: Close must not wait for the write mutex a
// blocked Send holds — closing the socket is what releases that Send, with
// ErrClosed.
func TestCloseReleasesBlockedSend(t *testing.T) {
	tr, stop := silentPeer(t)
	defer stop()
	errc := make(chan error, 1)
	go func() {
		payload := make([]byte, 64<<10)
		for i := 0; ; i++ { // no timeout configured: blocks once the buffers fill
			if err := tr.Send(1, &comm.Message{Type: comm.MsgGradPush, Seq: uint64(i), Payload: payload}); err != nil {
				errc <- err
				return
			}
		}
	}()
	// Two equal ledger samples 50 ms apart: the sender has stopped making
	// progress, so it sits in Write. (Were it merely descheduled, its next
	// Send would still end in ErrClosed, so the assertions below hold.)
	for last := int64(-1); ; {
		time.Sleep(50 * time.Millisecond)
		msgs, _ := tr.Stats().TotalSent()
		if msgs == last {
			break
		}
		last = msgs
	}
	closed := make(chan struct{})
	go func() { tr.Close(); close(closed) }()
	select {
	case err := <-errc:
		if !errors.Is(err, comm.ErrClosed) {
			t.Fatalf("send released by Close: got %v, want ErrClosed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not release a Send blocked in Write")
	}
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung behind a blocked Send")
	}
}

// TestConcurrentSendersOneLink: 8 goroutines share one link (run it under
// -race). Every frame must arrive whole — its payload is a pure function of
// (sender, index), sized to span several socket writes' worth — and each
// sender's frames in its own send order.
func TestConcurrentSendersOneLink(t *testing.T) {
	const senders, perSender = 8, 150
	pattern := func(g, i int) []byte {
		p := make([]byte, 8+(g*997+i*7919)%(48<<10))
		binary.LittleEndian.PutUint32(p[0:], uint32(g))
		binary.LittleEndian.PutUint32(p[4:], uint32(i))
		for j := 8; j < len(p); j++ {
			p[j] = byte(g*31 + i + j)
		}
		return p
	}
	ts := mesh(t, 2)
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				if err := ts[0].Send(1, &comm.Message{Type: comm.MsgGradPush, Seq: uint64(g), Payload: pattern(g, i)}); err != nil {
					t.Errorf("sender %d frame %d: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	ts[1].SetRecvTimeout(30 * time.Second)
	next := make([]int, senders)
	for n := 0; n < senders*perSender; n++ {
		m, err := ts[1].Recv(0)
		if err != nil {
			t.Fatalf("recv after %d frames: %v", n, err)
		}
		g := int(m.Seq)
		if g >= senders || len(m.Payload) < 8 {
			t.Fatalf("frame %d torn: seq %d, %d bytes", n, m.Seq, len(m.Payload))
		}
		if i := int(binary.LittleEndian.Uint32(m.Payload[4:])); i != next[g] {
			t.Fatalf("sender %d out of order: frame %d arrived at position %d", g, i, next[g])
		}
		if !bytes.Equal(m.Payload, pattern(g, next[g])) {
			t.Fatalf("sender %d frame %d arrived interleaved or corrupted", g, next[g])
		}
		next[g]++
	}
	wg.Wait()
}

// exchangeSink keeps the busy goroutines' arithmetic observable.
var exchangeSink atomic.Uint64

// BenchmarkExchange times one 2-rank all-gather round of a 100 KiB payload
// (tcp-2rank's iteration frame) over the in-memory reference and over
// loopback TCP, once on an otherwise idle process and once with two
// goroutines burning CPU — which is what a training process looks like to
// its transport: every goroutine hand-off on the round's path then queues
// behind compute. Compare the tcp/busy and mem/busy rows to see what the
// transport's own hand-offs cost.
func BenchmarkExchange(b *testing.B) {
	const payloadBytes = 100 << 10
	backends := []struct {
		name string
		mesh func(b *testing.B) []comm.Transport
	}{
		{"mem", func(*testing.B) []comm.Transport {
			ms := comm.NewMemNetwork(2)
			return []comm.Transport{ms[0], ms[1]}
		}},
		{"tcp", func(b *testing.B) []comm.Transport {
			ts := mesh(b, 2)
			return []comm.Transport{ts[0], ts[1]}
		}},
	}
	for _, be := range backends {
		for _, busy := range []bool{false, true} {
			name := be.name + "/idle"
			if busy {
				name = be.name + "/busy"
			}
			b.Run(name, func(b *testing.B) {
				ts := be.mesh(b)
				var stop atomic.Bool
				var burners sync.WaitGroup
				if busy {
					for g := 0; g < 2; g++ {
						burners.Add(1)
						go func() {
							defer burners.Done()
							x := uint64(1)
							for !stop.Load() {
								for i := 0; i < 1<<12; i++ {
									x = x*6364136223846793005 + 1442695040888963407
								}
							}
							exchangeSink.Add(x)
						}()
					}
				}
				round := func(r int) error {
					coord := comm.NewCoordinator(ts[r])
					for i := 0; i < b.N; i++ {
						// A fresh payload per round, as the engine builds one.
						if _, err := coord.Exchange(comm.MsgGradPush, make([]byte, payloadBytes)); err != nil {
							return err
						}
					}
					return nil
				}
				b.SetBytes(payloadBytes)
				b.ResetTimer()
				peer := make(chan error, 1)
				go func() { peer <- round(1) }()
				err := round(0)
				if perr := <-peer; err == nil {
					err = perr
				}
				b.StopTimer()
				stop.Store(true)
				burners.Wait()
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "us/round")
			})
		}
	}
}
