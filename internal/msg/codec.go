package msg

import (
	"encoding/binary"
	"errors"
	"io"
)

// Wire format (big-endian):
//
//	byte  0      kind
//	byte  1      flags (bit0 = Bot)
//	bytes 2-5    From (int32)
//	bytes 6-9    Subject (int32)
//	bytes 10-13  Phase (int32; -1 = wildcard)
//	byte  14     Value
//	bytes 15-18  Cardinality (int32)
//	bytes 19-22  Payload length (uint32)
//	bytes 23..   Payload
const headerLen = 23

const flagBot = 0x01

// MaxPayload bounds payload sizes accepted by Decode, protecting network
// readers from hostile length prefixes.
const MaxPayload = 1 << 20

// MaxFrame bounds the length prefix a streaming Decoder accepts: the header,
// a maximal payload, and slack for transport-level framing (e.g. the
// netxport instance-mux header).
const MaxFrame = headerLen + MaxPayload + 64

// Decode errors are fixed values, not formatted strings: decoding runs on
// the transport hot path, and a hostile peer must not be able to make the
// reader allocate per malformed frame.
var (
	// ErrShortMessage is returned when a buffer is too small to hold a
	// message.
	ErrShortMessage = errors.New("msg: short message buffer")
	// ErrBadKind is returned when the kind byte is outside the defined range.
	ErrBadKind = errors.New("msg: invalid kind")
	// ErrBadValue is returned when the value byte is not a binary value.
	ErrBadValue = errors.New("msg: invalid value")
	// ErrPayloadTooLarge is returned when the payload length prefix exceeds
	// MaxPayload.
	ErrPayloadTooLarge = errors.New("msg: payload length exceeds limit")
	// ErrFrameTooLarge is returned by a Decoder when a frame's length prefix
	// exceeds MaxFrame.
	ErrFrameTooLarge = errors.New("msg: frame length exceeds limit")
)

// AppendEncode appends the wire encoding of m to dst and returns the
// extended slice. It allocates only when dst lacks capacity, so transport
// hot paths can reuse one buffer across messages.
func AppendEncode(dst []byte, m Message) []byte {
	var flags byte
	if m.Bot {
		flags |= flagBot
	}
	dst = append(dst, byte(m.Kind), flags)
	dst = binary.BigEndian.AppendUint32(dst, uint32(m.From))
	dst = binary.BigEndian.AppendUint32(dst, uint32(m.Subject))
	dst = binary.BigEndian.AppendUint32(dst, uint32(m.Phase))
	dst = append(dst, byte(m.Value))
	dst = binary.BigEndian.AppendUint32(dst, uint32(m.Cardinality))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(m.Payload)))
	return append(dst, m.Payload...)
}

// Encode serializes the message into a fresh byte slice. Hot paths should
// prefer AppendEncode with a reused buffer.
func Encode(m Message) []byte {
	return AppendEncode(make([]byte, 0, EncodedLen(m)), m)
}

// Decode parses a message previously produced by Encode. It validates the
// kind, the value, and the payload length. The payload, when present, is
// copied out of buf, so the caller may reuse buf immediately.
func Decode(buf []byte) (Message, error) {
	if len(buf) < headerLen {
		return Message{}, ErrShortMessage
	}
	m := Message{
		Kind:        Kind(buf[0]),
		Bot:         buf[1]&flagBot != 0,
		From:        ID(int32(binary.BigEndian.Uint32(buf[2:6]))),
		Subject:     ID(int32(binary.BigEndian.Uint32(buf[6:10]))),
		Phase:       Phase(int32(binary.BigEndian.Uint32(buf[10:14]))),
		Value:       Value(buf[14]),
		Cardinality: int32(binary.BigEndian.Uint32(buf[15:19])),
	}
	if !m.Kind.Valid() {
		return Message{}, ErrBadKind
	}
	if !m.Value.Valid() {
		return Message{}, ErrBadValue
	}
	plen := binary.BigEndian.Uint32(buf[19:23])
	if plen > MaxPayload {
		return Message{}, ErrPayloadTooLarge
	}
	if len(buf) < headerLen+int(plen) {
		return Message{}, ErrShortMessage
	}
	if plen > 0 {
		m.Payload = make([]byte, plen)
		copy(m.Payload, buf[headerLen:headerLen+int(plen)])
	}
	return m, nil
}

// EncodedLen returns the number of bytes Encode will produce for m.
func EncodedLen(m Message) int {
	return headerLen + len(m.Payload)
}

// Decoder reads length-prefixed frames from an io.Reader into one reused
// internal buffer: a 4-byte big-endian length followed by that many frame
// bytes. It replaces the read-loop pattern of allocating a fresh slice per
// frame; steady-state decoding performs no allocations for payload-free
// messages.
//
// A Decoder is not safe for concurrent use.
type Decoder struct {
	r          io.Reader
	buf        []byte // buffered bytes; unread region is buf[head:tail]
	head, tail int
	max        int
}

// NewDecoder returns a Decoder reading frames from r, rejecting frames
// larger than MaxFrame.
func NewDecoder(r io.Reader) *Decoder {
	return &Decoder{r: r, buf: make([]byte, 4096), max: MaxFrame}
}

// Frame returns the next frame's bytes, excluding the length prefix. The
// returned slice aliases the Decoder's internal buffer and is valid only
// until the next Frame or Decode call. A clean EOF on a frame boundary
// returns io.EOF; an EOF mid-prefix or mid-frame returns
// io.ErrUnexpectedEOF.
func (d *Decoder) Frame() ([]byte, error) {
	if err := d.fill(4); err != nil {
		return nil, err
	}
	size := int(binary.BigEndian.Uint32(d.buf[d.head:]))
	if size > d.max {
		return nil, ErrFrameTooLarge
	}
	if err := d.fill(4 + size); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	frame := d.buf[d.head+4 : d.head+4+size]
	d.head += 4 + size
	return frame, nil
}

// Decode returns the next frame parsed as a Message.
func (d *Decoder) Decode() (Message, error) {
	frame, err := d.Frame()
	if err != nil {
		return Message{}, err
	}
	return Decode(frame)
}

// fill blocks until at least need unread bytes are buffered. On EOF with
// some-but-not-enough bytes buffered it returns io.ErrUnexpectedEOF; on EOF
// with none it returns io.EOF.
func (d *Decoder) fill(need int) error {
	if d.tail-d.head >= need {
		return nil
	}
	if d.head == d.tail {
		// Drained: the next Read gets the whole buffer, not the tail the
		// last frame left.
		d.head, d.tail = 0, 0
	}
	// Compact or grow so buf[head:] can hold the needed bytes.
	if d.head+need > len(d.buf) {
		if need <= len(d.buf) {
			copy(d.buf, d.buf[d.head:d.tail])
		} else {
			grown := make([]byte, need+need/2)
			copy(grown, d.buf[d.head:d.tail])
			d.buf = grown
		}
		d.tail -= d.head
		d.head = 0
	}
	for d.tail-d.head < need {
		n, err := d.r.Read(d.buf[d.tail:])
		d.tail += n
		if err != nil {
			if d.tail-d.head >= need {
				return nil // the final Read delivered enough alongside the error
			}
			if err == io.EOF && d.tail-d.head > 0 {
				return io.ErrUnexpectedEOF
			}
			return err
		}
	}
	return nil
}

// AppendFrame appends a length-prefixed encoding of frame bytes already in
// body form -- the inverse of Decoder.Frame -- and returns the extended
// slice.
func AppendFrame(dst, frame []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(frame)))
	return append(dst, frame...)
}
