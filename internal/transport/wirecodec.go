// Wire frame codec: the length-prefixed binary representation of a frame on
// a real connection. The in-process transport hands frames between endpoints
// as Go values; the wire layer serializes the same frame plus the ledger's
// sequence number or ack (wireFrame), so nothing above the transport can tell
// the substrates apart.
//
// Layout of one encoded frame (the Conn implementations additionally prefix
// the whole blob with a uint32 length when the medium is a byte stream):
//
//	[0]     version byte (wireVersion)
//	[1:5]   CRC32 (IEEE) of everything after this field, big endian
//	[5]     flags: bit0 ack, bit2 traced (bit1 is unused)
//	[6:10]  from NodeID (uint32)
//	[10:14] to NodeID (uint32)
//	[14:22] seq (uint64)
//	[22:30] ackUpTo (uint64)
//	[30:34] payload count (uint32): 0 on an ack, 1 on a data frame
//	then, on a data frame: uint32 length + that many payload-codec bytes
//
// Corruption defense is layered: a frame whose version byte, CRC, count or
// any declared length disagrees with the bytes on hand decodes to an error —
// never a panic, never a delivery, and never an allocation sized by
// attacker-controlled lengths (every declared length is validated against
// the bytes actually present before anything is allocated). The connection
// that produced such a frame is dropped by the reader; the wire ledger
// re-delivers whatever was in flight after the reconnect.
package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
)

// wireVersion is the current frame format version. A peer speaking a
// different version is dropped at decode (forward compatibility is a
// reconnect-and-upgrade story, not a mixed-version one).
const wireVersion = 1

// MaxFrameBytes bounds one encoded frame (and therefore every read buffer a
// conn allocates). A length prefix beyond it is treated as corruption.
const MaxFrameBytes = 16 << 20

// maxWirePayloads bounds the payload count one frame may declare: a data
// frame carries exactly one payload (a sender-built batch is one payload
// however many messages it holds) and an ack none, so a frame claiming any
// other count is adversarial or corrupt.
const maxWirePayloads = 1

const wireHeaderLen = 34 // version..count, before the payload section

const (
	wireFlagAck    = 1 << 0
	wireFlagTraced = 1 << 2
)

// Frame decode errors. errWireChecksum is special-cased by readers: it is
// counted as a checksum failure, every other decode error as a torn frame.
var (
	errWireShort    = errors.New("transport: frame truncated")
	errWireVersion  = errors.New("transport: unknown wire version")
	errWireChecksum = errors.New("transport: frame checksum mismatch")
	errWireLength   = errors.New("transport: frame length field exceeds data")
)

// PayloadCodec serializes the opaque payloads a frame carries. Encode
// appends to buf (reuse across calls keeps the encode path allocation-flat)
// and Decode must tolerate arbitrary bytes by returning an error.
type PayloadCodec interface {
	EncodePayload(buf []byte, p any) ([]byte, error)
	DecodePayload(data []byte) (any, error)
}

// encodeFrame appends the wire encoding of f to dst and returns the extended
// slice. Payloads are serialized through pc.
func encodeFrame(dst []byte, f *wireFrame, pc PayloadCodec) ([]byte, error) {
	base := len(dst)
	var flags byte
	if f.ack {
		flags |= wireFlagAck
	}
	if f.traced {
		flags |= wireFlagTraced
	}
	dst = append(dst, wireVersion, 0, 0, 0, 0, flags)
	dst = binary.BigEndian.AppendUint32(dst, uint32(f.from))
	dst = binary.BigEndian.AppendUint32(dst, uint32(f.to))
	dst = binary.BigEndian.AppendUint64(dst, f.seq)
	dst = binary.BigEndian.AppendUint64(dst, f.ackUpTo)
	if f.ack {
		dst = binary.BigEndian.AppendUint32(dst, 0)
	} else {
		dst = binary.BigEndian.AppendUint32(dst, 1)
		// Reserve the length field, encode in place, then backfill it.
		lenAt := len(dst)
		dst = append(dst, 0, 0, 0, 0)
		var err error
		dst, err = pc.EncodePayload(dst, f.payload)
		if err != nil {
			return dst[:base], fmt.Errorf("transport: encode payload: %w", err)
		}
		binary.BigEndian.PutUint32(dst[lenAt:], uint32(len(dst)-lenAt-4))
	}
	if len(dst)-base > MaxFrameBytes {
		return dst[:base], fmt.Errorf("transport: frame exceeds %d bytes", MaxFrameBytes)
	}
	binary.BigEndian.PutUint32(dst[base+1:], crc32.ChecksumIEEE(dst[base+5:]))
	return dst, nil
}

// decodeFrame parses one encoded frame. Payload bytes are decoded through pc
// into fresh values (the input buffer is the conn's and will be reused).
// Every failure mode — truncation, bad version, checksum mismatch, a length
// or count field larger than the data present — returns an error; no input
// can panic or force an allocation bigger than the input itself.
func decodeFrame(data []byte, pc PayloadCodec) (wireFrame, error) {
	var f wireFrame
	if len(data) < wireHeaderLen {
		return f, errWireShort
	}
	if len(data) > MaxFrameBytes {
		return f, errWireLength
	}
	if data[0] != wireVersion {
		return f, errWireVersion
	}
	if crc32.ChecksumIEEE(data[5:]) != binary.BigEndian.Uint32(data[1:5]) {
		return f, errWireChecksum
	}
	flags := data[5]
	f.ack = flags&wireFlagAck != 0
	f.traced = flags&wireFlagTraced != 0
	f.from = NodeID(binary.BigEndian.Uint32(data[6:10]))
	f.to = NodeID(binary.BigEndian.Uint32(data[10:14]))
	f.seq = binary.BigEndian.Uint64(data[14:22])
	f.ackUpTo = binary.BigEndian.Uint64(data[22:30])
	count := binary.BigEndian.Uint32(data[30:34])
	rest := data[wireHeaderLen:]
	// An ack declares no payload and a data frame exactly one.
	if f.ack != (count == 0) || count > maxWirePayloads {
		return f, errWireLength
	}
	if count == 0 {
		if len(rest) != 0 {
			return f, errWireLength
		}
		return f, nil
	}
	if len(rest) < 4 {
		return f, errWireShort
	}
	n := binary.BigEndian.Uint32(rest[:4])
	rest = rest[4:]
	if uint64(n) != uint64(len(rest)) {
		return f, errWireLength
	}
	p, err := pc.DecodePayload(rest)
	if err != nil {
		return f, fmt.Errorf("transport: decode payload: %w", err)
	}
	f.payload, f.msgs = p, payloadLen(p)
	return f, nil
}

// payloadHolder wraps a payload for gob so the dynamic type round-trips
// through the interface field (concrete types must be gob-registered, which
// the engine does for its message vocabulary).
type payloadHolder struct {
	V any
}

// Scalar payloads ride the wire without user registration; anything richer
// is the application's vocabulary to register.
func init() {
	gob.Register("")
	gob.Register(int(0))
	gob.Register(int64(0))
	gob.Register(uint64(0))
	gob.Register(float64(0))
	gob.Register(false)
	gob.Register([]byte(nil))
}

// gobState pools the buffer+encoder pairs the gob payload codec reuses.
// A gob.Encoder is bound to its writer, so buffer and encoder recycle
// together; each Encode call on a fresh encoder re-emits type definitions,
// which is the price of per-payload framing (measured by BENCH_wire).
type gobState struct {
	buf bytes.Buffer
}

var gobPool = sync.Pool{New: func() any { return new(gobState) }}

// GobPayloadCodec is the default PayloadCodec: encoding/gob with an
// interface wrapper. engine.RegisterStateType registers state types with gob
// too (engine.StateCodec's fixed layout covers only stored blobs), so one
// registration covers checkpoints and the wire alike.
type GobPayloadCodec struct{}

// EncodePayload implements PayloadCodec.
func (GobPayloadCodec) EncodePayload(buf []byte, p any) ([]byte, error) {
	st := gobPool.Get().(*gobState)
	st.buf.Reset()
	err := gob.NewEncoder(&st.buf).Encode(&payloadHolder{V: p})
	if err == nil {
		buf = append(buf, st.buf.Bytes()...)
	}
	gobPool.Put(st)
	if err != nil {
		return buf, err
	}
	return buf, nil
}

// DecodePayload implements PayloadCodec. Gob decoding of hostile bytes
// returns an error; the decoder additionally refuses inputs whose decoded
// size would dwarf the input (gob's own allocation limits apply).
func (GobPayloadCodec) DecodePayload(data []byte) (any, error) {
	var h payloadHolder
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&h); err != nil {
		return nil, err
	}
	return h.V, nil
}
