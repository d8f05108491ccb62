// Wire format: the length-prefixed binary framing every real transport
// backend speaks, following the little-endian magic/version conventions of
// the checkpoint codec (internal/embed/checkpoint.go).
//
// Frame layout (all fields little-endian):
//
//	offset  size  field
//	0       4     magic   uint32 = 0x48474d54 ("HGMT")
//	4       1     version uint8  = 1
//	5       1     type    uint8  (MsgType, < NumMsgTypes)
//	6       2     from    uint16 (sender rank)
//	8       8     seq     uint64
//	16      4     length  uint32 (payload bytes, ≤ MaxPayload)
//	20      n     payload
//
// The header is fixed-size so a reader can always consume exactly
// FrameHeaderSize bytes, validate, and then read a bounded payload: a
// corrupted length prefix is rejected against MaxPayload *before* any
// allocation happens, so a hostile or damaged stream can make the decoder
// error but never over-allocate or panic (FuzzMessageCodec pins this).
package comm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

const (
	// FrameMagic marks the start of every frame ("HGMT").
	FrameMagic = 0x48474d54
	// FrameVersion is the current wire version.
	FrameVersion = 1
	// FrameHeaderSize is the fixed size of the frame header in bytes.
	FrameHeaderSize = 20
	// MaxPayload bounds a frame's payload; a length prefix past it is
	// rejected before allocation. 1 GiB comfortably covers the largest
	// exchange (a full dense-gradient vector) while stopping a corrupted
	// prefix from demanding the address space.
	MaxPayload = 1 << 30
)

// Wire-format decode errors.
var (
	ErrBadMagic      = errors.New("comm: bad frame magic")
	ErrBadVersion    = errors.New("comm: unsupported frame version")
	ErrBadType       = errors.New("comm: unknown message type in frame")
	ErrFrameTooLarge = errors.New("comm: frame payload exceeds MaxPayload")
	ErrShortFrame    = errors.New("comm: truncated frame")
)

// frameTooLargeError rejects a payload of n bytes with ErrFrameTooLarge. It
// formats its message only when asked, so a decoder refusing a lying length
// prefix allocates the error value and nothing else. fmt.Errorf would also
// take a printer from a sync.Pool, which the race detector empties at random,
// and the refusal's allocation count would vary from run to run.
type frameTooLargeError struct{ n uint64 }

func (e frameTooLargeError) Error() string {
	return fmt.Sprintf("%v: %d bytes", ErrFrameTooLarge, e.n)
}

func (e frameTooLargeError) Unwrap() error { return ErrFrameTooLarge }

// FrameSize returns the wire size of a frame carrying payloadLen bytes.
// Both backends account ledger bytes with it, so a message sequence costs
// the same number of ledger bytes no matter which backend carried it.
func FrameSize(payloadLen int) int64 {
	return FrameHeaderSize + int64(payloadLen)
}

// AppendFrame appends the framed encoding of m (sent by rank from) to buf
// and returns the extended slice.
func AppendFrame(buf []byte, from int, m *Message) ([]byte, error) {
	buf, err := AppendFrameHeader(buf, from, m)
	if err != nil {
		return buf, err
	}
	return append(buf, m.Payload...), nil
}

// AppendFrameHeader appends the header of m's frame (sent by rank from) to
// buf: the frame on the wire is that header followed by m.Payload, so a
// writer can send the two without copying the payload next to the header.
func AppendFrameHeader(buf []byte, from int, m *Message) ([]byte, error) {
	if int(m.Type) >= NumMsgTypes {
		return buf, fmt.Errorf("%w: %d", ErrBadType, int(m.Type))
	}
	if len(m.Payload) > MaxPayload {
		return buf, frameTooLargeError{uint64(len(m.Payload))}
	}
	if from < 0 || from > 0xffff {
		return buf, fmt.Errorf("comm: sender rank %d does not fit the frame header", from)
	}
	var hdr [FrameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], FrameMagic)
	hdr[4] = FrameVersion
	hdr[5] = byte(m.Type)
	binary.LittleEndian.PutUint16(hdr[6:8], uint16(from))
	binary.LittleEndian.PutUint64(hdr[8:16], m.Seq)
	binary.LittleEndian.PutUint32(hdr[16:20], uint32(len(m.Payload)))
	return append(buf, hdr[:]...), nil
}

// EncodeFrame frames m as a fresh byte slice.
func EncodeFrame(from int, m *Message) ([]byte, error) {
	return AppendFrame(make([]byte, 0, FrameHeaderSize+len(m.Payload)), from, m)
}

// parseHeader validates a frame header and returns the sender rank, the
// message shell and the payload length.
func parseHeader(hdr []byte) (from int, m Message, payloadLen int, err error) {
	if magic := binary.LittleEndian.Uint32(hdr[0:4]); magic != FrameMagic {
		return 0, Message{}, 0, fmt.Errorf("%w: %#x", ErrBadMagic, magic)
	}
	if hdr[4] != FrameVersion {
		return 0, Message{}, 0, fmt.Errorf("%w: %d", ErrBadVersion, hdr[4])
	}
	if int(hdr[5]) >= NumMsgTypes {
		return 0, Message{}, 0, fmt.Errorf("%w: %d", ErrBadType, hdr[5])
	}
	n := binary.LittleEndian.Uint32(hdr[16:20])
	if n > MaxPayload {
		return 0, Message{}, 0, frameTooLargeError{uint64(n)}
	}
	m = Message{
		Type: MsgType(hdr[5]),
		Seq:  binary.LittleEndian.Uint64(hdr[8:16]),
	}
	return int(binary.LittleEndian.Uint16(hdr[6:8])), m, int(n), nil
}

// DecodeFrame decodes one frame from the front of buf, returning the sender
// rank, the message (whose payload aliases buf) and the number of bytes
// consumed. It never allocates proportionally to a corrupted length prefix:
// the prefix is validated against both MaxPayload and len(buf) first.
func DecodeFrame(buf []byte) (from int, m *Message, consumed int, err error) {
	if len(buf) < FrameHeaderSize {
		return 0, nil, 0, fmt.Errorf("%w: %d of %d header bytes", ErrShortFrame, len(buf), FrameHeaderSize)
	}
	from, shell, payloadLen, err := parseHeader(buf[:FrameHeaderSize])
	if err != nil {
		return 0, nil, 0, err
	}
	if len(buf) < FrameHeaderSize+payloadLen {
		return 0, nil, 0, fmt.Errorf("%w: %d of %d payload bytes", ErrShortFrame, len(buf)-FrameHeaderSize, payloadLen)
	}
	if payloadLen > 0 {
		shell.Payload = buf[FrameHeaderSize : FrameHeaderSize+payloadLen]
	}
	return from, &shell, FrameHeaderSize + payloadLen, nil
}

// ReadFrameHeader reads and validates one frame header from r, returning
// the sender rank, the payload-less message shell and the payload length
// still on the stream. It blocks until a header arrives, so a transport
// that wants to time payload decode separately from socket idle wait can
// start its clock after this returns. A clean EOF at a frame boundary
// stays io.EOF; a stream ending mid-header surfaces as ErrShortFrame.
func ReadFrameHeader(r io.Reader) (from int, shell Message, payloadLen int, err error) {
	var hdr [FrameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return 0, Message{}, 0, io.EOF
		}
		return 0, Message{}, 0, fmt.Errorf("%w: %w", ErrShortFrame, err)
	}
	return parseHeader(hdr[:])
}

// ReadFramePayload reads the payload announced by a validated header into
// payload, which the caller sized to the header's payload length only after
// ReadFrameHeader validated it, and sets shell.Payload to it.
func ReadFramePayload(r io.Reader, shell *Message, payload []byte) error {
	if len(payload) == 0 {
		return nil
	}
	shell.Payload = payload
	if _, err := io.ReadFull(r, payload); err != nil {
		return fmt.Errorf("%w: %w", ErrShortFrame, err)
	}
	return nil
}

// ReadFrame reads one frame from r. The payload is freshly allocated only
// after the length prefix passed validation, and a stream that ends mid-
// frame surfaces as ErrShortFrame wrapped over io.ErrUnexpectedEOF (a clean
// EOF at a frame boundary stays io.EOF).
func ReadFrame(r io.Reader) (from int, m *Message, err error) {
	from, shell, payloadLen, err := ReadFrameHeader(r)
	if err != nil {
		return 0, nil, err
	}
	if err := ReadFramePayload(r, &shell, make([]byte, payloadLen)); err != nil {
		return 0, nil, err
	}
	return from, &shell, nil
}
