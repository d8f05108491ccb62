// Package tcpnet is the real-socket Transport backend: a full mesh of TCP
// connections carrying the shared wire format (comm/wire.go). Each process
// is one rank; rank i accepts connections from every lower rank and dials
// every higher rank, so exactly one connection exists per unordered pair.
//
// Concurrency model: Send frames the message and writes it to the socket on
// the calling goroutine, under the link's write mutex — a Send that returned
// has handed its bytes to the kernel, and no goroutine hand-off sits between
// the application and the wire. A reader goroutine per connection decodes
// frames into the unbounded per-peer inbox whether or not the application
// is receiving, so Recv is a queue pop with the same timeout/fault
// semantics as the in-memory reference backend. That unconditional drain is
// what the collective layer's deadlock freedom (every rank sends all its
// round's messages before any rank receives) rests on: a Send blocked on
// full kernel buffers waits for the peer's reader goroutine, never for the
// peer application, so it always makes progress against a live peer.
package tcpnet

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"hetgmp/internal/comm"
	"hetgmp/internal/obs"
)

// Config describes one endpoint of the mesh.
type Config struct {
	// Rank is this process's identity in [0, len(Peers)).
	Rank int
	// Peers lists every rank's listen address, index-aligned with ranks.
	// Peers[Rank] is the address this process listens on.
	Peers []string
	// Listener optionally supplies a pre-bound listener for Peers[Rank]
	// (tests bind port 0 and pass the listener in to avoid races on port
	// choice). Connect takes ownership and closes it.
	Listener net.Listener
	// DialTimeout bounds the whole connection-establishment phase,
	// including retries while peer processes are still starting.
	// Zero means 30s.
	DialTimeout time.Duration
	// Obs optionally attaches an observability registry: connection
	// lifecycle counters, encode/flush/decode wall-clock histograms and the
	// byte ledger as a live collector (comm.ObserveTransport). Nil — the
	// default — is fully disabled at zero cost, per the obs package
	// contract.
	Obs *obs.Registry
}

// Transport is a connected TCP mesh endpoint implementing comm.Transport.
type Transport struct {
	rank  int
	size  int
	stats comm.Ledger
	met   *netMetrics // nil when observability is off

	conns   []*conn // index by peer rank; nil at own rank
	inbox   []*comm.MessageQueue
	pools   []comm.PayloadPool // pools[p] lends the buffers p's frames are read into
	lis     net.Listener
	closed  atomic.Bool
	readers sync.WaitGroup // the readLoop goroutines; Close waits for them

	mu      sync.Mutex
	timeout time.Duration
}

// netMetrics are the backend's wall-clock instruments. All methods are
// nil-receiver safe so the data path stays branch-plus-return when
// observability is off; stripes are keyed by peer rank, and each has one
// writer at a time: decode is observed by the link's reader goroutine,
// encode and flush by whoever holds its write mutex.
type netMetrics struct {
	encode  *obs.Histogram // frame header encode wall nanoseconds
	flush   *obs.Histogram // socket write wall nanoseconds
	decode  *obs.Histogram // payload read + decode wall nanoseconds
	dials   *obs.Counter   // outbound connections established
	accepts *obs.Counter   // inbound connections accepted
	retries *obs.Counter   // dial attempts that failed and were retried
	eofs    *obs.Counter   // links torn down by a peer close (EOF/RST)
}

func newNetMetrics(reg *obs.Registry) *netMetrics {
	if reg == nil {
		return nil
	}
	return &netMetrics{
		encode:  reg.Histogram("transport.encode_wall_nanos", obs.TimeEdges()),
		flush:   reg.Histogram("transport.flush_wall_nanos", obs.TimeEdges()),
		decode:  reg.Histogram("transport.decode_wall_nanos", obs.TimeEdges()),
		dials:   reg.Counter("transport.connects"),
		accepts: reg.Counter("transport.accepts"),
		retries: reg.Counter("transport.dial_retries"),
		eofs:    reg.Counter("transport.peer_eof"),
	}
}

// conn is one established link to a peer.
type conn struct {
	peer int
	sock net.Conn
	// down is set once the link has failed in either direction; later
	// Sends fail fast instead of writing into a dead socket.
	down atomic.Bool

	// wmu serialises writers: a frame goes out whole, and frames of one
	// sender go out in its Send order. Close never takes it. It guards the
	// write scratch below: the header, and the header-plus-payload vector
	// one writev sends.
	wmu  sync.Mutex
	hdr  [comm.FrameHeaderSize]byte
	iov  [2][]byte
	bufs net.Buffers
}

const defaultDialTimeout = 30 * time.Second

// Connect establishes the full mesh and returns once every link is up and
// has completed its hello handshake. Rank r accepts from ranks < r and
// dials ranks > r, retrying dials until DialTimeout to absorb startup skew
// between processes.
func Connect(cfg Config) (*Transport, error) {
	n := len(cfg.Peers)
	if n == 0 {
		return nil, fmt.Errorf("tcpnet: empty peer list")
	}
	if cfg.Rank < 0 || cfg.Rank >= n {
		return nil, fmt.Errorf("tcpnet: rank %d outside peer list of %d", cfg.Rank, n)
	}
	dialTimeout := cfg.DialTimeout
	if dialTimeout <= 0 {
		dialTimeout = defaultDialTimeout
	}

	t := &Transport{
		rank:  cfg.Rank,
		size:  n,
		met:   newNetMetrics(cfg.Obs),
		conns: make([]*conn, n),
		inbox: make([]*comm.MessageQueue, n),
		pools: make([]comm.PayloadPool, n),
	}
	t.stats.InitPeers(n)
	for p := range t.inbox {
		t.inbox[p] = &comm.MessageQueue{}
	}
	if n == 1 {
		comm.ObserveTransport(cfg.Obs, t)
		return t, nil
	}

	lis := cfg.Listener
	if lis == nil {
		var err error
		lis, err = net.Listen("tcp", cfg.Peers[cfg.Rank])
		if err != nil {
			return nil, fmt.Errorf("tcpnet: listen %s: %w", cfg.Peers[cfg.Rank], err)
		}
	}
	t.lis = lis

	type dialed struct {
		peer int
		sock net.Conn
		err  error
	}
	results := make(chan dialed, n)

	// Accept one connection per lower rank; the hello frame identifies
	// which rank dialed.
	go func() {
		for p := 0; p < cfg.Rank; p++ {
			sock, err := lis.Accept()
			if err != nil {
				results <- dialed{err: fmt.Errorf("tcpnet: accept: %w", err)}
				return
			}
			peer, err := readHello(sock, n)
			if err != nil {
				sock.Close()
				results <- dialed{err: err}
				return
			}
			if err := writeHello(sock, cfg.Rank, n); err != nil {
				sock.Close()
				results <- dialed{err: err}
				return
			}
			if t.met != nil {
				t.met.accepts.Inc(peer)
			}
			results <- dialed{peer: peer, sock: sock}
		}
	}()

	// Dial every higher rank concurrently, retrying while its process
	// may still be binding its listener.
	for p := cfg.Rank + 1; p < n; p++ {
		go func(p int) {
			deadline := time.Now().Add(dialTimeout)
			var lastErr error
			for {
				remain := time.Until(deadline)
				if remain <= 0 {
					results <- dialed{err: fmt.Errorf("tcpnet: dial rank %d at %s: %w (last: %v)",
						p, cfg.Peers[p], comm.ErrTimeout, lastErr)}
					return
				}
				sock, err := net.DialTimeout("tcp", cfg.Peers[p], remain)
				if err == nil {
					if err = writeHello(sock, cfg.Rank, n); err == nil {
						var peer int
						if peer, err = readHello(sock, n); err == nil {
							if peer != p {
								err = fmt.Errorf("tcpnet: dialed rank %d but peer identifies as %d", p, peer)
							}
						}
					}
					if err == nil {
						if t.met != nil {
							t.met.dials.Inc(p)
						}
						results <- dialed{peer: p, sock: sock}
						return
					}
					sock.Close()
					results <- dialed{err: err}
					return
				}
				lastErr = err
				if t.met != nil {
					t.met.retries.Inc(p)
				}
				time.Sleep(20 * time.Millisecond)
			}
		}(p)
	}

	var firstErr error
	for i := 0; i < n-1; i++ {
		d := <-results
		if d.err != nil {
			if firstErr == nil {
				firstErr = d.err
			}
			continue
		}
		if tc, ok := d.sock.(*net.TCPConn); ok {
			tc.SetNoDelay(true)
		}
		t.conns[d.peer] = &conn{peer: d.peer, sock: d.sock}
	}
	if firstErr != nil {
		t.Close()
		return nil, firstErr
	}
	for _, c := range t.conns {
		if c == nil {
			continue
		}
		t.readers.Add(1)
		go func(c *conn) {
			defer t.readers.Done()
			t.readLoop(c)
		}(c)
	}
	comm.ObserveTransport(cfg.Obs, t)
	return t, nil
}

// Hello handshake: each side sends one empty MsgControl frame whose header
// carries its rank; the payload is unused. Reusing the wire format means
// the handshake exercises the same codec the data path does.
func writeHello(sock net.Conn, rank, size int) error {
	buf, err := comm.EncodeFrame(rank, &comm.Message{Type: comm.MsgControl, Seq: uint64(size)})
	if err != nil {
		return fmt.Errorf("tcpnet: hello encode: %w", err)
	}
	if _, err := sock.Write(buf); err != nil {
		return fmt.Errorf("tcpnet: hello write: %w", err)
	}
	return nil
}

func readHello(sock net.Conn, size int) (int, error) {
	sock.SetReadDeadline(time.Now().Add(defaultDialTimeout))
	defer sock.SetReadDeadline(time.Time{})
	from, m, err := comm.ReadFrame(sock)
	if err != nil {
		return 0, fmt.Errorf("tcpnet: hello read: %w", err)
	}
	if m.Type != comm.MsgControl || m.Seq != uint64(size) {
		return 0, fmt.Errorf("tcpnet: hello mismatch: peer reports mesh of %d, expected %d", m.Seq, size)
	}
	if from < 0 || from >= size {
		return 0, fmt.Errorf("tcpnet: hello from rank %d outside mesh of %d", from, size)
	}
	return from, nil
}

// peerFault normalises the stream errors a vanished peer produces — clean
// FIN (EOF) and abortive close (RST / broken pipe) — to the typed
// ErrPeerClosed, and an expired write deadline (a peer that stopped
// reading) to ErrTimeout; anything else (a torn frame, a codec violation)
// is kept.
func peerFault(err error) error {
	if err == io.EOF || errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE) {
		return comm.ErrPeerClosed
	}
	if errors.Is(err, os.ErrDeadlineExceeded) {
		return comm.ErrTimeout
	}
	return err
}

// readLoop decodes frames into the per-peer inbox until the link dies. The
// header read is untimed (it blocks across socket idle), so the decode
// histogram measures payload transfer + decode only. Each payload is read
// into a buffer the link's pool lends — one the application released, else
// a fresh one — only after its header passed validation. A frame is ledgered
// before it is pushed, so any message the application has popped is already
// accounted — end-of-run ledgers are complete once the protocol has
// consumed its last message.
func (t *Transport) readLoop(c *conn) {
	met := t.met
	var clock time.Time
	for {
		from, shell, payloadLen, err := comm.ReadFrameHeader(c.sock)
		if err == nil {
			if met != nil {
				clock = time.Now()
			}
			err = comm.ReadFramePayload(c.sock, &shell, t.pools[c.peer].Get(payloadLen))
		}
		if err != nil {
			if t.closed.Load() {
				t.inbox[c.peer].CloseWith(comm.ErrClosed)
			} else {
				fault := peerFault(err)
				if met != nil && errors.Is(fault, comm.ErrPeerClosed) {
					met.eofs.Inc(c.peer)
				}
				t.inbox[c.peer].CloseWith(&comm.PeerError{Peer: c.peer, Op: "recv from", Err: fault})
			}
			c.down.Store(true)
			return
		}
		if met != nil {
			met.decode.Observe(c.peer, time.Since(clock).Nanoseconds())
		}
		if from != c.peer {
			t.inbox[c.peer].CloseWith(&comm.PeerError{
				Peer: c.peer, Op: "recv from",
				Err: fmt.Errorf("frame claims sender %d on link to %d", from, c.peer),
			})
			c.down.Store(true)
			return
		}
		m := &shell
		t.stats.RecordRecvFrom(c.peer, m.Type, comm.FrameSize(len(m.Payload)))
		t.inbox[c.peer].Push(m)
	}
}

// failConn tears down one link after a local write error — a partial write
// leaves the stream torn, so the link cannot carry another frame — and
// seals its inbox so the fault surfaces on Recv as well. It returns the
// typed error Send reports.
func (t *Transport) failConn(c *conn, err error) error {
	c.down.Store(true)
	if t.closed.Load() {
		return comm.ErrClosed // Close raced the write and owns the teardown
	}
	pe := &comm.PeerError{Peer: c.peer, Op: "send to", Err: peerFault(err)}
	// Seal before closing the socket: the close wakes readLoop, whose own
	// seal would otherwise race this one with a less specific error.
	t.inbox[c.peer].CloseWith(pe)
	c.sock.Close()
	return pe
}

// Rank implements comm.Transport.
func (t *Transport) Rank() int { return t.rank }

// Size implements comm.Transport.
func (t *Transport) Size() int { return t.size }

// SetRecvTimeout implements comm.Transport.
func (t *Transport) SetRecvTimeout(d time.Duration) {
	t.mu.Lock()
	t.timeout = d
	t.mu.Unlock()
}

func (t *Transport) recvTimeout() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.timeout
}

// Stats implements comm.Transport.
func (t *Transport) Stats() comm.Stats { return t.stats.Snapshot() }

// LinkStats implements comm.Transport.
func (t *Transport) LinkStats() []comm.LinkStats { return t.stats.LinkSnapshot() }

// Send implements comm.Transport: validate, frame and write on the calling
// goroutine, account. It is safe for concurrent use (writers to one link
// take turns under its write mutex) and may block while the kernel's socket
// buffers are full — until the peer's reader goroutine drains them, never
// on the peer application. With a receive timeout configured the write is
// bounded by it too, so a peer that stopped reading yields a *comm.PeerError
// over ErrTimeout instead of a hang. When Send returns nil the frame is in
// the kernel: a Close right after does not lose it.
func (t *Transport) Send(to int, m *Message) error {
	if t.closed.Load() {
		return comm.ErrClosed
	}
	if to < 0 || to >= t.size {
		return fmt.Errorf("tcpnet: send to rank %d outside mesh of %d", to, t.size)
	}
	if to == t.rank {
		return fmt.Errorf("tcpnet: send to self (rank %d)", to)
	}
	if int(m.Type) >= comm.NumMsgTypes {
		return fmt.Errorf("%w: %d", comm.ErrBadType, int(m.Type))
	}
	if len(m.Payload) > comm.MaxPayload {
		return fmt.Errorf("%w: %d bytes", comm.ErrFrameTooLarge, len(m.Payload))
	}
	c := t.conns[to]
	if c == nil || c.down.Load() {
		return &comm.PeerError{Peer: to, Op: "send to", Err: comm.ErrPeerClosed}
	}
	if err := t.writeFrame(c, m); err != nil {
		return err
	}
	t.stats.RecordSendTo(to, m.Type, comm.FrameSize(len(m.Payload)))
	return nil
}

// writeFrame encodes m's header and writes it and the payload out with one
// vectored write, all under the link's write mutex. The payload is never
// copied, and the link keeps no reference to it once the write returns.
func (t *Transport) writeFrame(c *conn, m *Message) error {
	met := t.met
	timeout := t.recvTimeout()
	c.wmu.Lock()
	defer c.wmu.Unlock()
	var clock time.Time
	if met != nil {
		clock = time.Now()
	}
	hdr, err := comm.AppendFrameHeader(c.hdr[:0], t.rank, m)
	if err != nil {
		// Send already validated type and size; only a rank the header
		// cannot hold gets here. Nothing was written, the link stays up.
		return fmt.Errorf("tcpnet: encode for rank %d: %w", c.peer, err)
	}
	if met != nil {
		now := time.Now()
		met.encode.Observe(c.peer, now.Sub(clock).Nanoseconds())
		clock = now
	}
	var deadline time.Time // zero: no bound
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	// SetWriteDeadline fails only on a closed socket, which Write reports.
	c.sock.SetWriteDeadline(deadline)
	c.iov = [2][]byte{hdr, m.Payload}
	c.bufs = c.iov[:]
	_, err = c.bufs.WriteTo(c.sock)
	c.iov[1] = nil
	if err != nil {
		return t.failConn(c, err)
	}
	if met != nil {
		met.flush.Observe(c.peer, time.Since(clock).Nanoseconds())
	}
	return nil
}

// Message aliases comm.Message so call sites reading tcpnet code stay
// obviously tied to the shared wire contract.
type Message = comm.Message

// Recv implements comm.Transport.
func (t *Transport) Recv(from int) (*comm.Message, error) {
	if from < 0 || from >= t.size {
		return nil, fmt.Errorf("tcpnet: recv from rank %d outside mesh of %d", from, t.size)
	}
	if from == t.rank {
		return nil, fmt.Errorf("tcpnet: recv from self (rank %d)", from)
	}
	return t.inbox[from].Pop(t.recvTimeout())
}

// Release implements comm.Transport: the link's read loop may read a later
// frame from rank `from` into payload.
func (t *Transport) Release(from int, payload []byte) {
	if from >= 0 && from < t.size {
		t.pools[from].Put(payload)
	}
}

// Close implements comm.Transport: sockets close (peers see ErrPeerClosed
// via EOF), local pending receives unblock with ErrClosed, and the reader
// goroutines have exited when it returns. There is nothing to flush — every
// Send that returned has its bytes in the kernel already — and the sockets
// are closed without taking the write mutex, which is what releases a Send
// still blocked in Write.
func (t *Transport) Close() error {
	if !t.closed.CompareAndSwap(false, true) {
		return nil
	}
	if t.lis != nil {
		t.lis.Close()
	}
	for _, c := range t.conns {
		if c != nil {
			c.sock.Close()
		}
	}
	for _, q := range t.inbox {
		q.CloseWith(comm.ErrClosed)
	}
	t.readers.Wait()
	return nil
}
