package transport

import (
	"encoding/binary"
	"hash/crc32"
	"testing"
)

// FuzzDecodeFrame feeds arbitrary bytes to the frame decoder. The contract
// under fuzz: decodeFrame either returns a frame or an error — it never
// panics and never allocates proportionally to a declared (attacker-
// controlled) length rather than to the input itself. To reach the payload
// parsing code past the CRC gate, inputs that carry the version byte get a
// second pass with their checksum fixed up — that simulates a corrupt frame
// whose CRC happens to validate, exercising the length-table defenses.
func FuzzDecodeFrame(f *testing.F) {
	pc := GobPayloadCodec{}

	// Valid encodings seed the corpus so mutation starts near the format.
	for _, fr := range []wireFrame{
		{frame: frame{from: 1, to: 2, payload: "seed"}, seq: 1},
		{frame: frame{from: 3, to: 4}, seq: 9, ack: true, ackUpTo: 9},
		{},
		{frame: frame{from: 5, to: 6, payload: []byte{0, 1, 2, 3}}, seq: 2},
	} {
		enc, err := encodeFrame(nil, &fr, pc)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	// Adversarial seeds: truncated header, hostile payload count, hostile
	// per-payload length, trailing garbage.
	f.Add([]byte{wireVersion})
	f.Add(make([]byte, wireHeaderLen-1))
	hostileCount := make([]byte, wireHeaderLen)
	hostileCount[0] = wireVersion
	binary.BigEndian.PutUint32(hostileCount[30:34], 0xffffffff)
	binary.BigEndian.PutUint32(hostileCount[1:5], crc32.ChecksumIEEE(hostileCount[5:]))
	f.Add(hostileCount)
	hostileLen := make([]byte, wireHeaderLen+4)
	hostileLen[0] = wireVersion
	binary.BigEndian.PutUint32(hostileLen[30:34], 1)
	binary.BigEndian.PutUint32(hostileLen[wireHeaderLen:], 0x7fffffff)
	binary.BigEndian.PutUint32(hostileLen[1:5], crc32.ChecksumIEEE(hostileLen[5:]))
	f.Add(hostileLen)

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := decodeFrame(data, pc)
		if err == nil {
			// Anything accepted must respect the frame invariant: an ack
			// carries no payload.
			if fr.ack && (fr.payload != nil || fr.msgs != 0) {
				t.Fatalf("accepted an ack carrying a payload: %+v", fr)
			}
		}
		if len(data) >= wireHeaderLen && data[0] == wireVersion {
			// Second pass with a valid CRC: the length-table checks, not the
			// checksum, must hold the line.
			fixed := make([]byte, len(data))
			copy(fixed, data)
			binary.BigEndian.PutUint32(fixed[1:5], crc32.ChecksumIEEE(fixed[5:]))
			fr2, err := decodeFrame(fixed, pc)
			if err == nil && fr2.ack && (fr2.payload != nil || fr2.msgs != 0) {
				t.Fatalf("accepted a fixed-CRC ack carrying a payload: %+v", fr2)
			}
		}
	})
}
