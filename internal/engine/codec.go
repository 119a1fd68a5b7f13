package engine

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"reflect"
	"slices"

	"tornado/internal/stream"
)

// VertexBlob is the stored representation of a vertex version: application
// state plus the dependency edges (and their event clocks), so a snapshot
// carries the full input graph. Targets is ascending.
type VertexBlob struct {
	State       any
	Targets     []stream.VertexID
	TargetClock map[stream.VertexID]stream.Timestamp
	// Pending persists an unconsumed accumulated delta alongside the state
	// (delta mode): a commit that does not consume a sub-threshold pending
	// must not strand its mass, because the gathers that produced it already
	// mutated the persisted per-producer records — recovery re-sends would
	// diff to zero. Persisting (state, pending) pairs keeps recovery and
	// branch forks exact (DESIGN.md §13).
	Pending    any
	HasPending bool
}

// BinaryState is implemented by state and pending types that have a fixed
// binary layout (binary.go has the primitives). The codec stores such values
// without reflection; every other type still round-trips, through gob.
type BinaryState interface {
	// BinaryTag identifies the type in stored blobs. Tags below
	// FirstStateTag belong to the codec; a tag is never reused or renumbered
	// while blobs carrying it may still sit in a store.
	BinaryTag() byte
	// AppendBinary appends the value's encoding to dst.
	AppendBinary(dst []byte) []byte
	// DecodeBinary decodes one value of the receiver's type from the front
	// of src and returns it with the bytes that follow. The receiver is the
	// registered prototype and is not modified.
	DecodeBinary(src []byte) (v any, rest []byte, err error)
}

// FirstStateTag is the lowest tag a BinaryState may claim.
const FirstStateTag = 16

// Built-in value tags: nil and the scalar pending types of the delta programs.
const (
	tagNil byte = iota
	tagFloat64
	tagInt64
	tagVertexID
)

// blobFormat opens every fixed-layout blob. A gob stream opens with its
// message length — a byte below 0x80, or 0xF8..0xFF announcing a multi-byte
// length — so no gob blob an older build stored can start with it.
const blobFormat = 0xB1

// binProto maps a tag to its registered prototype. Filled from init
// functions, read-only afterwards.
var binProto [256]BinaryState

// RegisterStateType makes a concrete state (or delta pending) type storable:
// it is registered with gob, which the wire and the fallback path use, and,
// when it implements BinaryState, under its tag for the fixed-layout path.
// Call it from the program package's init.
func RegisterStateType(v any) {
	gob.Register(v)
	b, ok := v.(BinaryState)
	if !ok {
		return
	}
	tag := b.BinaryTag()
	if old := binProto[tag]; tag < FirstStateTag || (old != nil && reflect.TypeOf(old) != reflect.TypeOf(v)) {
		panic(fmt.Sprintf("engine: state tag %d of %T is reserved or taken (%T)", tag, v, old))
	}
	binProto[tag] = b
}

func init() {
	// The type was unexported when gob was the only format; keep that name so
	// blobs and frames of older builds still decode.
	gob.RegisterName("tornado/internal/engine.vertexBlob", VertexBlob{})
}

// StateCodec serializes vertex versions for the store, checkpoints, forks and
// merges. Blobs whose state and pending have a binary layout are written in
// the fixed layout below; anything else — unregistered user types, values
// that are not a VertexBlob, blobs an older build left in a DiskStore — goes
// through gob, inside the same codec.
//
//	blobFormat
//	state        tag, then the type's AppendBinary bytes
//	targets      count, ascending IDs
//	targetClock  map of ID to timestamp (nil when empty)
//	hasPending   0 or 1
//	pending      tag, then the type's AppendBinary bytes
type StateCodec struct{}

// GobCodec is StateCodec's former name, which benchmark/probes.go still uses.
type GobCodec = StateCodec

// AppendBlob appends b's encoding to dst. The commit path passes a reused
// buffer and the vertex's own maps: nothing is retained.
func (StateCodec) AppendBlob(dst []byte, b *VertexBlob) ([]byte, error) {
	start := len(dst)
	dst = append(dst, blobFormat)
	dst, ok := appendValue(dst, b.State)
	if ok {
		dst = binary.AppendUvarint(dst, uint64(len(b.Targets)))
		for _, t := range b.Targets {
			dst = AppendID(dst, t)
		}
		clock := b.TargetClock
		if len(clock) == 0 {
			clock = nil // one encoding for "no clocks", whichever the caller holds
		}
		dst = AppendIDMap(dst, clock, appendTimestamp)
		dst = AppendBool(dst, b.HasPending)
		dst, ok = appendValue(dst, b.Pending)
	}
	if ok {
		return dst, nil
	}
	data, err := gobEncode(*b)
	return append(dst[:start], data...), err
}

// appendVertex is AppendBlob for a live vertex: the same bytes, written from
// the vertex's edge records without building the blob's slice and map.
func (StateCodec) appendVertex(dst []byte, v *vertex) ([]byte, error) {
	start := len(dst)
	dst, ok := appendValue(append(dst, blobFormat), v.state)
	if ok {
		var ntargets, nclocks uint64
		for i := range v.out {
			if v.out[i].flags&edgePresent != 0 {
				ntargets++
			}
			if v.out[i].flags&edgeClocked != 0 {
				nclocks++
			}
		}
		dst = binary.AppendUvarint(dst, ntargets)
		for i := range v.out {
			if v.out[i].flags&edgePresent != 0 {
				dst = AppendID(dst, v.out[i].to)
			}
		}
		if nclocks > 0 {
			nclocks++ // a map is written as len+1; 0 is the nil map
		}
		dst = binary.AppendUvarint(dst, nclocks)
		for i := range v.out {
			if e := &v.out[i]; e.flags&edgeClocked != 0 {
				dst = appendTimestamp(AppendID(dst, e.to), e.clock)
			}
		}
		dst = AppendBool(dst, v.hasPending)
		dst, ok = appendValue(dst, v.pending)
	}
	if ok {
		return dst, nil
	}
	data, err := gobEncode(v.blob())
	return append(dst[:start], data...), err
}

// blob returns the vertex's stored representation as a VertexBlob.
func (v *vertex) blob() VertexBlob {
	b := VertexBlob{State: v.state, Pending: v.pending, HasPending: v.hasPending}
	for i := range v.out {
		e := &v.out[i]
		if e.flags&edgePresent != 0 {
			b.Targets = append(b.Targets, e.to)
		}
		if e.flags&edgeClocked != 0 {
			if b.TargetClock == nil {
				b.TargetClock = make(map[stream.VertexID]stream.Timestamp)
			}
			b.TargetClock[e.to] = e.clock
		}
	}
	return b
}

// setTargets is blob's inverse for a decoded (or adopted) version: targets
// become the current target set, with no added or removed marks, and clock
// merges into the edge clocks.
func (v *vertex) setTargets(targets []stream.VertexID, clock map[stream.VertexID]stream.Timestamp) {
	for i := range v.out {
		v.out[i].flags &^= edgePresent | edgeAdded | edgeRemoved
	}
	v.out = slices.Grow(v.out, len(targets))
	for _, t := range targets {
		v.edge(t).flags |= edgePresent
	}
	for t, ts := range clock {
		e := v.edge(t)
		e.clock, e.flags = ts, e.flags|edgeClocked
	}
}

// decodeVertex is appendVertex's inverse for a vertex with no edge records
// yet (a new vertex or a shell): it sets the stored state and builds v.out in
// order from the stored targets and clocks, both ascending, without the
// blob's slice and map. It returns the stored pending. A gob blob goes
// through DecodeBlob and setTargets.
func (c StateCodec) decodeVertex(data []byte, v *vertex) (pending any, hasPending bool, err error) {
	if len(data) == 0 || data[0] != blobFormat {
		b, err := c.DecodeBlob(data)
		if err != nil {
			return nil, false, err
		}
		v.state = b.State
		v.setTargets(b.Targets, b.TargetClock)
		return b.Pending, b.HasPending, nil
	}
	r := BinReader{Buf: data[1:]}
	state := readValue(&r)
	// Skip ahead to the clock count, so the records are sized for the larger
	// list (every target an edge input added has a clock), then read the
	// targets from where they start.
	nt := r.Count(1)
	targets := r
	for range nt {
		r.ID()
	}
	nc := r.Uvarint() // a map is written as len+1; 0 is the nil map
	if nc > 0 {
		if nc--; nc > uint64(len(r.Buf)/2) { // an entry is at least a key byte and a value byte
			r.advance(0)
			nc = 0
		}
	}
	var out []outEdge
	if n := max(nt, int(nc)); n > 0 {
		out = make([]outEdge, 0, n)
	}
	for range nt {
		to := targets.ID()
		if len(out) > 0 && to <= out[len(out)-1].to {
			r.advance(0)
			break
		}
		out = append(out, outEdge{to: to, flags: edgePresent})
	}
	j := 0
	for k := range nc {
		to, ts := r.ID(), take(&r, readTimestamp)
		if k > 0 && to <= out[j].to {
			r.advance(0)
			break
		}
		for j < len(out) && out[j].to < to {
			j++
		}
		if j == len(out) || out[j].to != to { // a clocked record that is not a target
			out = slices.Insert(out, j, outEdge{to: to})
		}
		out[j].clock, out[j].flags = ts, out[j].flags|edgeClocked
	}
	hasPending = r.Byte() != 0
	pending = readValue(&r)
	if r.Err == nil && len(r.Buf) != 0 {
		r.Err = ErrCorruptState
	}
	if r.Err != nil {
		return nil, false, fmt.Errorf("engine: decode state: %w", r.Err)
	}
	v.state, v.out = state, out
	return pending, hasPending, nil
}

// DecodeBlob decodes a stored vertex version of either format.
func (StateCodec) DecodeBlob(data []byte) (VertexBlob, error) {
	if len(data) == 0 || data[0] != blobFormat {
		v, err := gobDecode(data)
		if err != nil {
			return VertexBlob{}, err
		}
		b, ok := v.(VertexBlob)
		if !ok {
			return VertexBlob{}, fmt.Errorf("engine: stored value is %T, not a vertex blob", v)
		}
		return b, nil
	}
	var b VertexBlob
	r := BinReader{Buf: data[1:]}
	b.State = readValue(&r)
	if n := r.Count(1); n > 0 {
		b.Targets = make([]stream.VertexID, n)
		for i := range b.Targets {
			b.Targets[i] = r.ID()
		}
	}
	if b.TargetClock = ReadIDMap(&r, readTimestamp); len(b.TargetClock) == 0 {
		b.TargetClock = nil // AppendBlob never writes an empty non-nil clock; decode as it would re-encode
	}
	b.HasPending = r.Byte() != 0
	b.Pending = readValue(&r)
	if r.Err == nil && len(r.Buf) != 0 {
		r.Err = ErrCorruptState
	}
	if r.Err != nil {
		return VertexBlob{}, fmt.Errorf("engine: decode state: %w", r.Err)
	}
	return b, nil
}

// Encode serializes any value: a VertexBlob as AppendBlob does, others by gob.
func (c StateCodec) Encode(v any) ([]byte, error) {
	if b, ok := v.(VertexBlob); ok {
		return c.AppendBlob(make([]byte, 0, 256), &b)
	}
	return gobEncode(v)
}

// Decode is Encode's inverse.
func (c StateCodec) Decode(data []byte) (any, error) {
	if len(data) > 0 && data[0] == blobFormat {
		b, err := c.DecodeBlob(data)
		if err != nil {
			return nil, err
		}
		return b, nil
	}
	return gobDecode(data)
}

// appendValue appends a state or pending value; false means the value has no
// binary layout and the blob must fall back to gob.
func appendValue(dst []byte, v any) ([]byte, bool) {
	switch x := v.(type) {
	case nil:
		return append(dst, tagNil), true
	case float64:
		return AppendFloat64(append(dst, tagFloat64), x), true
	case int64:
		return binary.AppendVarint(append(dst, tagInt64), x), true
	case stream.VertexID:
		return AppendID(append(dst, tagVertexID), x), true
	case BinaryState:
		// The type check keeps a struct that merely embeds a registered type
		// (and so inherits its methods) from being stored as the embedded one.
		if tag := x.BinaryTag(); reflect.TypeOf(binProto[tag]) == reflect.TypeOf(v) {
			return x.AppendBinary(append(dst, tag)), true
		}
	}
	return dst, false
}

func readValue(r *BinReader) any {
	switch tag := r.Byte(); tag {
	case tagNil:
		return nil
	case tagFloat64:
		return r.Float64()
	case tagInt64:
		return r.Varint()
	case tagVertexID:
		return r.ID()
	default:
		proto := binProto[tag]
		if proto == nil || r.Err != nil {
			r.advance(0)
			return nil
		}
		v, rest, err := proto.DecodeBinary(r.Buf)
		r.Buf = rest
		if err != nil {
			r.Buf, r.Err = nil, err
		}
		return v
	}
}

func appendTimestamp(dst []byte, ts stream.Timestamp) []byte {
	return binary.AppendVarint(dst, int64(ts))
}

func readTimestamp(buf []byte) (stream.Timestamp, int) {
	v, n := binary.Varint(buf)
	return stream.Timestamp(v), n
}

// stateHolder lets gob recover the dynamic type of what it decodes.
type stateHolder struct {
	State any
}

func gobEncode(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&stateHolder{State: v}); err != nil {
		return nil, fmt.Errorf("engine: encode state: %w", err)
	}
	return buf.Bytes(), nil
}

func gobDecode(data []byte) (any, error) {
	var holder stateHolder
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&holder); err != nil {
		return nil, fmt.Errorf("engine: decode state: %w", err)
	}
	return holder.State, nil
}
