package engine

import (
	"encoding/binary"
	"errors"
	"math"
	"slices"

	"tornado/internal/stream"
)

// Primitives of the fixed-layout state encoding (DESIGN.md "State codec"),
// shared by the blob framing in codec.go and the BinaryState implementations
// in internal/algorithms: unsigned integers and vertex IDs are uvarints,
// signed integers zig-zag varints, floats their 8 IEEE-754 bytes little
// endian (NaN payloads and infinities survive), slices a count then the
// elements (empty decodes as nil), and maps len+1 (0 is the nil map) then the
// entries in ascending key order — equal values always give equal bytes.

// ErrCorruptState reports a truncated or malformed fixed-layout blob.
var ErrCorruptState = errors.New("engine: corrupt state blob")

// AppendFloat64 appends f as 8 little-endian bytes.
func AppendFloat64(dst []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
}

// ReadFloat64 is AppendFloat64's inverse, in the shape of binary.Varint: the
// value and the bytes consumed (0 when buf is too short).
func ReadFloat64(buf []byte) (float64, int) {
	if len(buf) < 8 {
		return 0, 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(buf)), 8
}

// AppendFloats appends a count and the elements of s.
func AppendFloats(dst []byte, s []float64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	for _, f := range s {
		dst = AppendFloat64(dst, f)
	}
	return dst
}

// AppendBool appends b as one byte, 0 or 1 (read back as Byte() != 0).
func AppendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// AppendID appends a vertex ID; ReadID is its inverse.
func AppendID(dst []byte, id stream.VertexID) []byte {
	return binary.AppendUvarint(dst, uint64(id))
}

func ReadID(buf []byte) (stream.VertexID, int) {
	v, n := binary.Uvarint(buf)
	return stream.VertexID(v), n
}

// AppendIDMap appends m with each value written by val (binary.AppendVarint,
// AppendFloat64, AppendID, or a function for a composite value).
func AppendIDMap[V any](dst []byte, m map[stream.VertexID]V, val func([]byte, V) []byte) []byte {
	if m == nil {
		return append(dst, 0)
	}
	dst = binary.AppendUvarint(dst, uint64(len(m))+1)
	var stack [32]stream.VertexID // keeps the usual small map's key sort off the heap
	keys := stack[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		dst = val(AppendID(dst, k), m[k])
	}
	return dst
}

// BinReader consumes the encoding from the front of Buf. The first truncated
// or malformed field sets Err and every later read returns zero, so a decoder
// reads all its fields and checks Err once.
type BinReader struct {
	Buf []byte
	Err error
}

// advance consumes the n bytes a primitive reported reading; n <= 0 is that
// primitive's malformed-input signal.
func (r *BinReader) advance(n int) bool {
	if n <= 0 || n > len(r.Buf) || r.Err != nil {
		r.Buf, r.Err = nil, ErrCorruptState
		return false
	}
	r.Buf = r.Buf[n:]
	return true
}

// take consumes one value with a primitive of binary.Varint's shape.
func take[T any](r *BinReader, read func([]byte) (T, int)) T {
	v, n := read(r.Buf)
	if !r.advance(n) {
		var zero T
		return zero
	}
	return v
}

func (r *BinReader) Uvarint() uint64     { return take(r, binary.Uvarint) }
func (r *BinReader) Varint() int64       { return take(r, binary.Varint) }
func (r *BinReader) Float64() float64    { return take(r, ReadFloat64) }
func (r *BinReader) ID() stream.VertexID { return take(r, ReadID) }

func (r *BinReader) Byte() byte {
	b := r.Buf
	if !r.advance(1) {
		return 0
	}
	return b[0]
}

// Count reads an element count and rejects one the remaining bytes could not
// hold at elemSize bytes each, so a hostile length prefix never sizes an
// allocation.
func (r *BinReader) Count(elemSize int) int {
	n := r.Uvarint()
	if n > uint64(len(r.Buf)/elemSize) {
		r.advance(0)
		return 0
	}
	return int(n)
}

// Floats reads what AppendFloats wrote.
func (r *BinReader) Floats() []float64 {
	n := r.Count(8)
	if n == 0 {
		return nil
	}
	s := make([]float64, n)
	for i := range s {
		s[i] = r.Float64()
	}
	return s
}

// ReadIDMap reads what AppendIDMap wrote; val has the shape of binary.Varint
// (value, bytes consumed; <= 0 on malformed input).
func ReadIDMap[V any](r *BinReader, val func([]byte) (V, int)) map[stream.VertexID]V {
	n := r.Uvarint()
	if n == 0 {
		return nil
	}
	if n-1 > uint64(len(r.Buf)/2) { // an entry is at least a key byte and a value byte
		r.advance(0)
		return nil
	}
	m := make(map[stream.VertexID]V, n-1)
	for i := uint64(1); i < n; i++ {
		k := r.ID()
		m[k] = take(r, val)
	}
	return m
}
