package algorithms

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"reflect"
	"strings"
	"testing"

	"tornado/internal/datasets"
	"tornado/internal/engine"
	"tornado/internal/stream"
	"tornado/internal/transport"
)

// blobFormat is the byte the engine's fixed-layout blobs open with; a gob
// stream cannot start with it.
const blobFormat = 0xB1

type id = stream.VertexID

// codecCases holds blobs of every state and pending type this package
// registers, with the shapes the codec must keep apart: nil and empty maps,
// Unreachable, NaN and infinite floats, a pending equal to the identity.
func codecCases() map[string]engine.VertexBlob {
	nan, inf := math.NaN(), math.Inf(1)
	clock := map[id]stream.Timestamp{2: 30, 9: 40, 700: -1}
	return map[string]engine.VertexBlob{
		"sssp":          {State: &SSSPState{Length: 3, Sent: 3, SrcLens: map[id]int64{1: 2, 5: Unreachable, 300: 9, 4: 2}}, Targets: []id{2, 9}, TargetClock: clock},
		"sssp-nil-map":  {State: &SSSPState{Length: Unreachable, Sent: Unreachable}},
		"sssp-empty":    {State: &SSSPState{SrcLens: map[id]int64{}}, Targets: []id{1 << 40}},
		"wsssp":         {State: &WSSSPState{Dist: inf, TargetW: map[id]float64{2: 1.5}, SrcDist: map[id]float64{7: nan, 8: -inf}, SentTo: map[id]float64{}}, Targets: []id{2}},
		"delta-sssp":    {State: &DeltaSSSPState{SSSPState: SSSPState{Length: 1, Sent: 1, SrcLens: map[id]int64{0: 0}}, Seq: 9}, Pending: ssspDelta{Seq: 9, Len: 1}, HasPending: true},
		"delta-sssp-id": {State: &DeltaSSSPState{}, Pending: ssspDelta{}, HasPending: true},
		"pagerank":      {State: &PageRankState{Rank: 0.2775, Sent: 0.06, Contribs: map[id]float64{3: 0.15, 1: 0.05}}, Targets: []id{2, 9, 700}, TargetClock: clock},
		"pagerank-pend": {State: &PageRankState{Rank: nan, Contribs: map[id]float64{}}, Pending: 0.0, HasPending: true},
		"pagerank-mass": {State: &PageRankState{Rank: 0.15}, Pending: -1e-5, HasPending: true},
		"cc":            {State: &CCState{Label: 1, Sent: 4, SrcLabels: map[id]id{4: 1, 6: 6}, Started: true}, Pending: id(3), HasPending: true},
		"cc-identity":   {State: &CCState{}, Pending: ^id(0), HasPending: true},
		"int-pending":   {State: &CCState{Label: 5}, Pending: int64(-7), HasPending: true},
		"km-block": {State: &KMBlockState{Points: []datasets.Point{{1, 2}, {3, nan}},
			Cents:    map[id][]float64{100: {0.5, 0.5}},
			LastSent: map[id]KMSums{100: {Sum: []float64{4, 6}, Count: 2}}}},
		"km-centroid": {State: &KMCentroidState{Pos: []float64{1, 1}, Sums: map[id]KMSums{7: {Sum: []float64{2, 2}, Count: 2}}}},
		"sgd-param": {State: &SGDParamState{W: []float64{0.1, -0.2}, Eta: 0.5, PrevObj: inf, HasPrev: true, Rounds: 12, BranchRounds: 3,
			Grads: map[id]GradMsg{9: {G: []float64{1, 2}, N: 8, Loss: 0.7}}}},
		"sgd-sampler": {State: &SGDSamplerState{Seen: 40, W: []float64{1}, NewW: true, Sample: []datasets.Instance{
			{X: []float64{1, 2}, Y: 1}, {X: []float64{3}, Idx: []int{17}, Y: -1}}}},
	}
}

// show renders a decoded blob so that NaN equals NaN and a nil map differs
// from an empty one (fmt prints map entries in key order, and a top-level
// pointer as the struct it points to).
func show(b engine.VertexBlob) string {
	return fmt.Sprintf("%#v %#v %#v %#v %v", b.State, b.Targets, b.TargetClock, b.Pending, b.HasPending)
}

// TestBinaryDecodeMatchesGob: for every registered type the fixed-layout
// round trip yields what a gob round trip of the same blob yields.
func TestBinaryDecodeMatchesGob(t *testing.T) {
	codec, pc := engine.StateCodec{}, transport.GobPayloadCodec{}
	for name, blob := range codecCases() {
		data, err := codec.Encode(blob)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if data[0] != blobFormat {
			t.Errorf("%s: %T / %T fell back to gob", name, blob.State, blob.Pending)
		}
		got, err := codec.DecodeBlob(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		wire, err := pc.EncodePayload(nil, blob)
		if err != nil {
			t.Fatalf("%s: gob: %v", name, err)
		}
		viaGob, err := pc.DecodePayload(wire)
		if err != nil {
			t.Fatalf("%s: gob: %v", name, err)
		}
		want := viaGob.(engine.VertexBlob)
		if show(got) != show(want) {
			t.Errorf("%s:\nbinary %s\n   gob %s", name, show(got), show(want))
		}
		if !strings.Contains(show(want), "NaN") && !reflect.DeepEqual(got, want) {
			t.Errorf("%s: binary and gob round trips differ", name)
		}
		again, _ := codec.Encode(got)
		if !bytes.Equal(again, data) {
			t.Errorf("%s: re-encoding the decoded blob changed its bytes", name)
		}
		if len(data) >= len(wire) {
			t.Errorf("%s: %d bytes, gob %d", name, len(data), len(wire))
		}
	}
}

// TestEveryRegisteredTypeHasBinaryLayout reads this package's source: each
// RegisterStateType call must name a type codecCases covers, and
// TestBinaryDecodeMatchesGob fails for a covered type that falls back to gob.
func TestEveryRegisteredTypeHasBinaryLayout(t *testing.T) {
	covered := map[string]bool{}
	for _, blob := range codecCases() {
		for _, v := range []any{blob.State, blob.Pending} {
			covered[strings.Replace(fmt.Sprintf("%T", v), "algorithms.", "", 1)] = true
		}
	}
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	for name, f := range pkgs["algorithms"].Files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); !ok || sel.Sel.Name != "RegisterStateType" {
				return true
			}
			calls++
			if typ := typeOfArg(call.Args[0]); !covered[typ] {
				t.Errorf("%s registers %s, which codecCases does not cover", name, typ)
			}
			return true
		})
	}
	if calls < 10 {
		t.Fatalf("found %d RegisterStateType calls; the scan is broken", calls)
	}
}

// typeOfArg names the type of &T{}, T{} or pkg.T(0) the way %T prints it.
func typeOfArg(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.UnaryExpr:
		return "*" + typeOfArg(x.X)
	case *ast.CompositeLit:
		return typeOfArg(x.Type)
	case *ast.CallExpr:
		return typeOfArg(x.Fun)
	case *ast.SelectorExpr:
		return typeOfArg(x.X) + "." + x.Sel.Name
	case *ast.Ident:
		return x.Name
	}
	return fmt.Sprintf("%T", e)
}

// TestBlobGoldenBytes pins the stored layout and the key order: a change
// here orphans every blob a DiskStore holds.
func TestBlobGoldenBytes(t *testing.T) {
	f := func(x float64) []byte { return engine.AppendFloat64(nil, x) }
	cases := codecCases()
	for name, want := range map[string][]byte{
		"sssp": bytes.Join([][]byte{{blobFormat,
			tagSSSP, 6, 6, // Length 3, Sent 3 (zig-zag)
			5, 1, 4, 4, 4, 5, 0x80, 0x80, 0x80, 0x80, 0x80, 0x40, 0xac, 0x02, 18, // 4 producers ascending: 1->2 4->2 5->Unreachable 300->9
			2, 2, 9, // targets
			4, 2, 60, 9, 80, 0xbc, 0x05, 1, // clocks 2->30 9->40 700->-1
			0, 0}}, nil), // no pending
		"pagerank": bytes.Join([][]byte{{blobFormat, tagPageRank}, f(0.2775), f(0.06),
			{3, 1}, f(0.05), {3}, f(0.15), // 2 contributors ascending
			{3, 2, 9, 0xbc, 0x05}, // targets
			{4, 2, 60, 9, 80, 0xbc, 0x05, 1},
			{0, 0}}, nil),
	} {
		got, err := engine.StateCodec{}.Encode(cases[name])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s layout changed:\n got %v\nwant %v", name, got, want)
		}
	}
}

// TestDecodeAllocs: decoding the blob of a vertex with four producers and
// four targets — what a branch pays per vertex it touches — stays within the
// state struct, its map, the target slice and the clock map.
func TestDecodeAllocs(t *testing.T) {
	data, err := engine.StateCodec{}.Encode(engine.VertexBlob{
		State:       &SSSPState{Length: 3, Sent: 3, SrcLens: map[id]int64{1: 2, 5: 4, 9: 3, 12: 7}},
		Targets:     []id{2, 3, 4, 8},
		TargetClock: map[id]stream.Timestamp{2: 10, 3: 11, 4: 12, 8: 13},
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := (engine.StateCodec{}).DecodeBlob(data); err != nil {
			t.Fatal(err)
		}
	}); n > 6 {
		t.Fatalf("DecodeBlob: %v allocs, want <= 6", n)
	}
}

// FuzzDecodeState: a fixed-layout blob that is truncated, bit-flipped or
// invented decodes to an error or to a value that re-encodes and decodes to
// itself — never a panic, never an allocation sized by a length prefix the
// bytes cannot back. Blobs of the gob format are encoding/gob's to parse.
func FuzzDecodeState(f *testing.F) {
	for _, blob := range codecCases() {
		data, err := engine.StateCodec{}.Encode(blob)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)/2])
		flipped := append([]byte(nil), data...)
		flipped[len(flipped)/3] ^= 0x40
		f.Add(flipped)
	}
	f.Add([]byte{blobFormat, tagSSSP, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || data[0] != blobFormat {
			return
		}
		blob, err := engine.StateCodec{}.DecodeBlob(data)
		if err != nil {
			return
		}
		again, err := engine.StateCodec{}.Encode(blob)
		if err != nil {
			t.Fatalf("decoded blob does not re-encode: %v", err)
		}
		back, err := engine.StateCodec{}.DecodeBlob(again)
		if err != nil || show(back) != show(blob) {
			t.Fatalf("re-encoded blob decodes to %s (%v), want %s", show(back), err, show(blob))
		}
	})
}
