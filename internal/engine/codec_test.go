package engine

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"tornado/internal/storage"
	"tornado/internal/stream"
)

// The SSSP test programs' states take the fixed-layout path, so the crash,
// merge, repartition and delta-recovery suites of this package exercise it;
// countState, sumState and dsumState have no binary layout and keep the gob
// fallback under the same suites.
const (
	tagTestSSSP byte = 240 + iota
	tagTestDSSSP
	tagTestDSSSPDelta
)

func (*ssspState) BinaryTag() byte { return tagTestSSSP }

func (s *ssspState) AppendBinary(dst []byte) []byte {
	dst = binary.AppendVarint(binary.AppendVarint(dst, s.Length), s.Sent)
	return AppendIDMap(dst, s.SrcLens, binary.AppendVarint)
}

func (*ssspState) DecodeBinary(src []byte) (any, []byte, error) {
	r := BinReader{Buf: src}
	s := &ssspState{Length: r.Varint(), Sent: r.Varint(), SrcLens: ReadIDMap(&r, binary.Varint)}
	return s, r.Buf, r.Err
}

func (*dssspState) BinaryTag() byte { return tagTestDSSSP }

func (s *dssspState) AppendBinary(dst []byte) []byte {
	dst = binary.AppendVarint(binary.AppendVarint(dst, s.Length), s.Sent)
	return binary.AppendUvarint(AppendIDMap(dst, s.SrcLens, binary.AppendVarint), s.Seq)
}

func (*dssspState) DecodeBinary(src []byte) (any, []byte, error) {
	r := BinReader{Buf: src}
	s := &dssspState{Length: r.Varint(), Sent: r.Varint(), SrcLens: ReadIDMap(&r, binary.Varint), Seq: r.Uvarint()}
	return s, r.Buf, r.Err
}

func (dssspDelta) BinaryTag() byte { return tagTestDSSSPDelta }

func (d dssspDelta) AppendBinary(dst []byte) []byte {
	return binary.AppendVarint(binary.AppendUvarint(dst, d.Seq), d.Len)
}

func (dssspDelta) DecodeBinary(src []byte) (any, []byte, error) {
	r := BinReader{Buf: src}
	d := dssspDelta{Seq: r.Uvarint(), Len: r.Varint()}
	return d, r.Buf, r.Err
}

// gobOnlyState is known to gob but has no binary layout.
type gobOnlyState struct {
	Name string
	Hits map[string]int
}

func init() { gob.Register(&gobOnlyState{}) }

func testBlob() VertexBlob {
	return VertexBlob{
		State:       &ssspState{Length: 7, Sent: 7, SrcLens: map[stream.VertexID]int64{3: 6}},
		Targets:     []stream.VertexID{1, 2},
		TargetClock: map[stream.VertexID]stream.Timestamp{1: 5},
		Pending:     int64(9), HasPending: true,
	}
}

func TestStateCodecRoundTrip(t *testing.T) {
	c := StateCodec{}
	for name, blob := range map[string]VertexBlob{
		"binary":         testBlob(),
		"binary-empty":   {State: &ssspState{}},
		"binary-pending": {State: &dssspState{Seq: 3}, Pending: dssspDelta{}, HasPending: true},
		"scalar-pending": {State: &ssspState{SrcLens: map[stream.VertexID]int64{}}, Pending: 0.0, HasPending: true},
		"gob-state":      {State: &gobOnlyState{Name: "x", Hits: map[string]int{"a": 1}}, Targets: []stream.VertexID{4}},
		"gob-pending":    {State: &ssspState{Length: 1}, Pending: "text", HasPending: true},
	} {
		data, err := c.Encode(blob)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if binary := data[0] == blobFormat; binary != (name[:3] != "gob") {
			t.Errorf("%s: fixed layout = %v", name, binary)
		}
		out, err := c.Decode(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(out, blob) {
			t.Errorf("%s: round trip\n got %+v\nwant %+v", name, out, blob)
		}
	}
	// Values that are not vertex blobs still round-trip (through gob).
	data, err := c.Encode(&ssspState{Length: 5})
	if err != nil {
		t.Fatal(err)
	}
	if out, err := c.Decode(data); err != nil || out.(*ssspState).Length != 5 {
		t.Fatalf("bare state round trip: %v %v", out, err)
	}
	if _, err := c.DecodeBlob(data); err == nil {
		t.Error("DecodeBlob accepted a stored value that is not a vertex blob")
	}
	if _, err := c.Decode([]byte("not gob")); err == nil {
		t.Error("Decode of garbage should error")
	}
}

// TestStateCodecCanonical: equal states give equal bytes whatever the map
// insertion order or the caller's empty-clock representation, and the layout
// is pinned.
func TestStateCodecCanonical(t *testing.T) {
	c := StateCodec{}
	a := &ssspState{Length: 2, Sent: inf, SrcLens: map[stream.VertexID]int64{}}
	b := &ssspState{Length: 2, Sent: inf, SrcLens: map[stream.VertexID]int64{}}
	for i := 0; i < 40; i++ {
		a.SrcLens[stream.VertexID(i*7)] = int64(i)
		b.SrcLens[stream.VertexID((39-i)*7)] = int64(39 - i)
	}
	x, _ := c.AppendBlob(nil, &VertexBlob{State: a, TargetClock: map[stream.VertexID]stream.Timestamp{}})
	y, _ := c.AppendBlob(nil, &VertexBlob{State: b})
	if !bytes.Equal(x, y) {
		t.Fatal("equal states encoded to different bytes")
	}
	got, err := c.Encode(testBlob())
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{blobFormat,
		tagTestSSSP, 14, 14, 2, 3, 12, // Length 7, Sent 7, one producer: 3 -> 6
		2, 1, 2, // two targets
		2, 1, 10, // one clock: 1 -> 5
		1, tagInt64, 18} // pending int64(9)
	if !bytes.Equal(got, want) {
		t.Fatalf("layout changed:\n got %v\nwant %v", got, want)
	}
}

// TestStateCodecReadsOldGobBlobs decodes bytes GobCodec.Encode produced at
// the commit before the fixed layout existed (what a DiskStore may hold).
func TestStateCodecReadsOldGobBlobs(t *testing.T) {
	old, err := hex.DecodeString("227f0301010b7374617465486f6c64657201ff80000101010553746174650110000000ff81ff800122746f726e61646f2f696e7465726e616c2f656e67696e652e766572746578426c6f62ff810301010a766572746578426c6f6201ff820001050105537461746501100001075461726765747301ff8400010b546172676574436c6f636b01ff8600010750656e64696e67011000010a48617350656e64696e6701020000001fff83020101115b5d73747265616d2e566572746578494401ff84000106000034ff85040101246d61705b73747265616d2e56657274657849445d73747265616d2e54696d657374616d7001ff8600010601040000ff9cff824b01112a656e67696e652e737373705374617465ff870301010973737370537461746501ff8800010301064c656e677468010400010453656e7401040001075372634c656e7301ff8a00000029ff89040101196d61705b73747265616d2e56657274657849445d696e74363401ff8a0001060104000022ff8809010e010e0101030c00010201020101010a0105696e7436340402001201010000")
	if err != nil {
		t.Fatal(err)
	}
	got, err := StateCodec{}.DecodeBlob(old)
	if err != nil {
		t.Fatal(err)
	}
	if want := testBlob(); !reflect.DeepEqual(got, want) {
		t.Fatalf("old blob decoded to %+v, want %+v", got, want)
	}
}

// TestStateCodecRejectsCorruptBlobs: every truncation of a valid blob, a
// hostile length prefix and an unknown tag are errors, never panics.
func TestStateCodecRejectsCorruptBlobs(t *testing.T) {
	c := StateCodec{}
	good, _ := c.Encode(testBlob())
	for n := 1; n < len(good); n++ {
		if _, err := c.DecodeBlob(good[:n]); !errors.Is(err, ErrCorruptState) {
			t.Errorf("truncation to %d bytes: err = %v", n, err)
		}
	}
	huge := binary.AppendUvarint([]byte{blobFormat, tagNil}, 1<<40) // 2^40 targets announced, none present
	for name, data := range map[string][]byte{
		"length prefix": huge,
		"unknown tag":   {blobFormat, 99, 0, 0, 0, tagNil},
		"trailing byte": append(append([]byte(nil), good...), 0),
	} {
		if _, err := c.DecodeBlob(data); !errors.Is(err, ErrCorruptState) {
			t.Errorf("%s: err = %v", name, err)
		}
	}
}

// TestDecodeVertexMatchesDecodeBlob: decoding a stored version straight into
// a fresh vertex's records gives what DecodeBlob and setTargets give — for
// targets without clocks, clocks of targets since removed, no edges at all,
// and the gob fallback — and it rejects what DecodeBlob rejects, plus records
// out of order, which no writer produces.
func TestDecodeVertexMatchesDecodeBlob(t *testing.T) {
	c := StateCodec{}
	for name, blob := range map[string]VertexBlob{
		"binary":     testBlob(),
		"no edges":   {State: &ssspState{}},
		"interleave": {State: int64(4), Targets: []stream.VertexID{2, 5, 9}, TargetClock: map[stream.VertexID]stream.Timestamp{1: 3, 5: 7, 9: 8, 12: -4}},
		"only clock": {State: &dssspState{Seq: 3}, TargetClock: map[stream.VertexID]stream.Timestamp{7: 1}, Pending: dssspDelta{Len: 2}, HasPending: true},
		"gob-state":  {State: &gobOnlyState{Name: "x"}, Targets: []stream.VertexID{4, 6}, TargetClock: map[stream.VertexID]stream.Timestamp{3: 1, 6: 2}},
	} {
		data, err := c.Encode(blob)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := newVertex(1, 1)
		want.state = blob.State
		want.setTargets(blob.Targets, blob.TargetClock)
		got := newVertex(1, 1)
		pending, hasPending, err := c.decodeVertex(data, got)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got.state, want.state) || !slices.Equal(got.out, want.out) ||
			!reflect.DeepEqual(pending, blob.Pending) || hasPending != blob.HasPending {
			t.Errorf("%s: decodeVertex gives state %+v, records %+v, pending %v/%v\nwant %+v, %+v, %v/%v",
				name, got.state, got.out, pending, hasPending, want.state, want.out, blob.Pending, blob.HasPending)
		}
	}

	good, _ := c.Encode(testBlob())
	for n := 1; n < len(good); n++ {
		if _, _, err := c.decodeVertex(good[:n], newVertex(1, 1)); !errors.Is(err, ErrCorruptState) {
			t.Errorf("truncation to %d bytes: err = %v", n, err)
		}
	}
	for name, data := range map[string][]byte{
		"length prefix":    binary.AppendUvarint([]byte{blobFormat, tagNil}, 1<<40),
		"clock prefix":     binary.AppendUvarint([]byte{blobFormat, tagNil, 0}, 1<<40),
		"trailing byte":    append(append([]byte(nil), good...), 0),
		"targets unsorted": {blobFormat, tagNil, 2, 5, 3, 0, 0, tagNil},
		"targets repeated": {blobFormat, tagNil, 2, 5, 5, 0, 0, tagNil},
		"clocks unsorted":  {blobFormat, tagNil, 0, 3, 5, 2, 3, 2, 0, tagNil},
	} {
		if _, _, err := c.decodeVertex(data, newVertex(1, 1)); !errors.Is(err, ErrCorruptState) {
			t.Errorf("%s: err = %v", name, err)
		}
	}
}

func TestRegisterStateTypeRejectsTagClash(t *testing.T) {
	RegisterStateType(&ssspState{}) // the same type again is fine
	expectPanic(t, "second type under a taken tag", func() { RegisterStateType(clashState{}) })
	expectPanic(t, "reserved tag", func() { RegisterStateType(reservedState{}) })
	// A struct that embeds a registered type inherits its methods; it must
	// not be stored as the embedded type.
	blob := VertexBlob{State: &embedsSSSP{Extra: 1}}
	data, err := StateCodec{}.Encode(blob)
	if err != nil {
		t.Fatal(err)
	}
	if out, err := (StateCodec{}).DecodeBlob(data); err != nil || !reflect.DeepEqual(out, blob) {
		t.Fatalf("embedding struct round trip: %+v, %v", out, err)
	}
}

type clashState struct{ dssspDelta }

func (clashState) BinaryTag() byte { return tagTestSSSP }

type reservedState struct{ dssspDelta }

func (reservedState) BinaryTag() byte { return tagInt64 }

type embedsSSSP struct {
	ssspState
	Extra int
}

func init() { gob.Register(&embedsSSSP{}) }

// TestCommitEncodeAllocs: encoding a vertex version into a warm buffer — what
// processor.persist does on every commit — allocates nothing.
func TestCommitEncodeAllocs(t *testing.T) {
	st := &ssspState{Length: 3, Sent: 3, SrcLens: map[stream.VertexID]int64{1: 2, 5: 4, 9: 3, 12: 7}}
	blob := VertexBlob{State: st, Targets: []stream.VertexID{2, 3, 4, 8},
		TargetClock: map[stream.VertexID]stream.Timestamp{2: 10, 3: 11, 4: 12, 8: 13}}
	buf := make([]byte, 0, 256)
	if n := testing.AllocsPerRun(200, func() {
		buf, _ = StateCodec{}.AppendBlob(buf[:0], &blob)
	}); n != 0 {
		t.Fatalf("AppendBlob into a warm buffer: %v allocs, want 0", n)
	}
}

// drawProg draws from the per-vertex generator at Init and on every input.
type drawProg struct{}

type drawState struct{ Draws []int64 }

func init() { RegisterStateType(&drawState{}) }

func (drawProg) Init(ctx Context) { ctx.SetState(&drawState{Draws: []int64{ctx.Rand().Int63()}}) }
func (drawProg) OnInput(ctx Context, _ stream.Tuple) {
	st := ctx.State().(*drawState)
	st.Draws = append(st.Draws, ctx.Rand().Int63())
}
func (drawProg) Gather(Context, stream.VertexID, int64, any) {}
func (drawProg) Scatter(Context)                             {}

// TestLazyRandSameStreams: the per-vertex generator is created on first use,
// from the seed expression an eager one used, so two engines with one seed
// draw identical streams whatever their partitioning.
func TestLazyRandSameStreams(t *testing.T) {
	id := stream.VertexID(42)
	v := newVertex(id, 99)
	if v.rng != nil {
		t.Fatal("generator created before the first Rand call")
	}
	ctx := &vertexContext{v: v}
	eager := rand.New(rand.NewSource(99 ^ int64(uint64(id)*0x9E3779B97F4A7C15)))
	for i := 0; i < 4; i++ {
		if got, want := ctx.Rand().Int63(), eager.Int63(); got != want {
			t.Fatalf("draw %d = %d, want %d", i, got, want)
		}
	}

	run := func(procs int) map[stream.VertexID][]int64 {
		e, err := New(Config{Processors: procs, DelayBound: 8, Kind: MainLoop, LoopID: storage.MainLoop,
			Store: storage.NewMVCCStore(), Program: drawProg{}, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		e.Start()
		defer e.Stop()
		for i := 0; i < 60; i++ {
			e.Ingest(stream.Tuple{Kind: stream.KindValue, Time: stream.Timestamp(i), Dst: stream.VertexID(i % 20)})
		}
		if err := e.WaitQuiesce(time.Minute); err != nil {
			t.Fatal(err)
		}
		out := make(map[stream.VertexID][]int64)
		if err := e.ScanStates(1<<62, func(id stream.VertexID, _ int64, st any) error {
			out[id] = st.(*drawState).Draws
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(1), run(4)
	if len(a) != 20 || !reflect.DeepEqual(a, b) {
		t.Fatalf("engines with one seed drew different streams:\n%v\n%v", a, b)
	}
}
