package algorithms

import (
	"bytes"
	"encoding/hex"
	"math"
	"reflect"
	"testing"

	"tornado/internal/datasets"
	"tornado/internal/engine"
	"tornado/internal/storage"
	"tornado/internal/stream"
)

// parentStore is what a build of the commit before the in-memory vertex
// layout changed (PR 18's parent) left in its main-loop store after settling
// SSSP over parentStoreTuples on two processors: the latest version of every
// vertex, terminated through iteration parentStoreUpTo.
var parentStore = []struct {
	vertex stream.VertexID
	iter   int64
	blob   string
}{
	{0, 3, "b110000002010201010201040000"},
	{1, 18, "b11002020c000002060380808080804004040504060409080b080d8080808080401604170606000304050616080002030e0412051a062016701792010000"},
	{2, 17, "b1100606050304050409081180808080804003010309040106030a092a0000"},
	{3, 16, "b1100404090102020604040a060b8080808080400c060f0610060402040a0f08017a020804160a300c7e0f461084010000"},
	{4, 14, "b110040405010203040a06170603010317040110031417780000"},
	{5, 7, "b110040403010215808080808040020102030118021c0000"},
	{6, 12, "b11004040501020c060e8080808080401380808080804002010c03011e0c3c0000"},
	{7, 0, "b1108080808080408080808080400101020202220000"},
	{8, 0, "b1108080808080408080808080400101030203240000"},
	{9, 14, "b110080802020602010203012602280000"},
	{10, 15, "b110060603030414080303041404032e042c14640000"},
	{11, 11, "b11008080210060101030132037c0000"},
	{12, 9, "b110060603038080808080400604020306030336063a0000"},
	{13, 11, "b1100808030f0612808080808040010f030180010f4a0000"},
	{14, 1, "b11080808080804080808080804001010a030682010a400000"},
	{15, 12, "b11006060303040d0802030d0303440d480000"},
	{16, 16, "b110060604038080808080401408160403030b1604034c0b50166c0000"},
	{17, 2, "b1108080808080408080808080400101010301540286010000"},
	{18, 4, "b110808080808040808080808040021380808080804001060406580d8801138e010000"},
	{19, 5, "b11080808080804080808080804002128080808080400003068a01128c010000"},
	{20, 14, "b1100808020a06020a10030a6210600000"},
	{21, 1, "b1108080808080408080808080400101100305900110660000"},
	{22, 12, "b1100404030102100602011003016e106a0000"},
	{23, 9, "b11006060301808080808040040402010403017204760000"},
}

const parentStoreUpTo = 19

func parentStoreTuples() []stream.Tuple {
	return datasets.WithRemovals(datasets.PowerLawGraph(24, 2, 9), 0.25, 3)
}

// TestBranchBootstrapsFromParentWrittenStore: stored bytes did not change
// with the in-memory layout. A branch loop bootstraps every vertex from blobs
// the parent commit wrote, re-commits each one (the seeds activate them all),
// converges on the reference fixed point — and what each commit stores has
// the edge records it was bootstrapped with, byte for byte the same blob
// wherever the program's state is unchanged.
func TestBranchBootstrapsFromParentWrittenStore(t *testing.T) {
	store := storage.NewMemStore()
	var ids []stream.VertexID
	for _, r := range parentStore {
		data, err := hex.DecodeString(r.blob)
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Put(storage.MainLoop, r.vertex, r.iter, data); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, r.vertex)
	}
	br, err := engine.New(engine.Config{
		Processors: 2, DelayBound: 8, Kind: engine.BranchLoop, LoopID: storage.LoopID(1),
		Store: store, Program: SSSP{Source: 0}, Seed: 7,
		Snapshot: &engine.SnapshotSource{Loop: storage.MainLoop, UpTo: parentStoreUpTo},
	})
	if err != nil {
		t.Fatal(err)
	}
	br.Start()
	defer br.Stop()
	br.Activate(ids...)
	if err := br.WaitDone(waitFor); err != nil {
		t.Fatal(err)
	}
	got, err := Distances(br)
	if err != nil {
		t.Fatal(err)
	}
	for v, w := range RefSSSP(parentStoreTuples(), 0, 64) {
		if g, ok := got[v]; !ok || g != w {
			t.Fatalf("vertex %d: branch distance %d (present %v), reference %d", v, g, ok, w)
		}
	}
	// Re-activation can teach a vertex about a producer that never had
	// anything to send it (an unreachable one now delivers "unreachable"), so
	// the state may gain entries; the edge records must come back as they
	// were, and wherever the state did too, so must the bytes.
	identical := 0
	for _, r := range parentStore {
		data, _, err := store.Latest(storage.LoopID(1), r.vertex, math.MaxInt64)
		if err != nil {
			t.Fatalf("vertex %d never committed in the branch: %v", r.vertex, err)
		}
		wantData, _ := hex.DecodeString(r.blob)
		got, err := engine.StateCodec{}.DecodeBlob(data)
		if err != nil {
			t.Fatal(err)
		}
		want, err := engine.StateCodec{}.DecodeBlob(wantData)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Targets, want.Targets) || !reflect.DeepEqual(got.TargetClock, want.TargetClock) {
			t.Fatalf("vertex %d: branch stored targets %v clocks %v; the parent commit had %v %v",
				r.vertex, got.Targets, got.TargetClock, want.Targets, want.TargetClock)
		}
		if reflect.DeepEqual(got.State, want.State) {
			identical++
			if !bytes.Equal(data, wantData) {
				t.Fatalf("vertex %d: the branch stored %x; the parent commit had stored %s", r.vertex, data, r.blob)
			}
		}
	}
	if identical < len(parentStore)/2 {
		t.Fatalf("only %d of %d vertices re-committed an unchanged state: the byte comparison proves little", identical, len(parentStore))
	}
}
