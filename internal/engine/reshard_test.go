package engine

import (
	"math"
	"testing"

	"tornado/internal/datasets"
	"tornado/internal/storage"
	"tornado/internal/stream"
)

func TestReshardResumesInPlace(t *testing.T) {
	tuples := datasets.PowerLawGraph(120, 3, 61)
	half := len(tuples) / 2
	store := storage.NewMVCCStore()
	e := newSSSPEngine(t, 2, 16, store, storage.MainLoop)
	e.Start()
	e.IngestAll(tuples[:half])

	ne, err := Reshard(e, 5, nil, waitFor)
	if err != nil {
		t.Fatal(err)
	}
	defer ne.Stop()
	// The resharded engine answers for the pre-reshard input...
	checkSSSP(t, ne, tuples[:half])
	// ...continues ingesting on the new partitioning...
	ne.IngestAll(tuples[half:])
	if err := ne.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	checkSSSP(t, ne, tuples)
	// ...and stamps new versions above the resumed history.
	if got := ne.Notified(); got <= 0 {
		t.Fatalf("resharded loop never advanced: notified=%d", got)
	}
	loads := ne.LoadStats()
	if len(loads) != 5 {
		t.Fatalf("LoadStats reported %d processors; want 5", len(loads))
	}
	active := 0
	for _, n := range loads {
		if n > 0 {
			active++
		}
	}
	if active < 4 {
		t.Fatalf("vertices did not spread across the new processors: %v", loads)
	}
}

func TestReshardRejectsBranch(t *testing.T) {
	e := newSSSPEngine(t, 2, 8, storage.NewMVCCStore(), storage.MainLoop)
	e.Start()
	defer e.Stop()
	e.Ingest(stream.AddEdge(1, 0, 1))
	if err := e.WaitSettled(waitFor); err != nil {
		t.Fatal(err)
	}
	br, _, err := e.ForkBranch(storage.LoopID(1), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer br.Stop()
	if err := br.WaitDone(waitFor); err != nil {
		t.Fatal(err)
	}
	if _, err := Reshard(br, 4, nil, waitFor); err == nil {
		t.Fatal("resharding a branch should fail")
	}
}

func TestReshardCustomPartition(t *testing.T) {
	tuples := datasets.PowerLawGraph(80, 3, 67)
	e := newSSSPEngine(t, 2, 16, storage.NewMVCCStore(), storage.MainLoop)
	e.Start()
	e.IngestAll(tuples)
	// Route everything to processor 1 — a degenerate but legal scheme.
	ne, err := Reshard(e, 3, func(stream.VertexID, int) int { return 1 }, waitFor)
	if err != nil {
		t.Fatal(err)
	}
	defer ne.Stop()
	ne.Ingest(stream.AddEdge(1<<40, 0, 79))
	if err := ne.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	all := append(append([]stream.Tuple{}, tuples...), stream.AddEdge(1<<40, 0, 79))
	checkSSSP(t, ne, all)
	loads := ne.LoadStats()
	if loads[0] != 0 || loads[2] != 0 || loads[1] == 0 {
		t.Fatalf("custom partition ignored: %v", loads)
	}
}

func TestCompactionBoundsMainLoopVersions(t *testing.T) {
	tuples := datasets.PowerLawGraph(100, 3, 71)
	store := storage.NewMVCCStore()
	e, err := New(Config{
		Processors: 2, DelayBound: 4, Kind: MainLoop,
		LoopID: storage.MainLoop, Store: store,
		Program: ssspProg{source: 0}, Seed: 42,
		CompactEvery: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	defer e.Stop()
	e.IngestAll(tuples)
	if err := e.WaitSettled(waitFor); err != nil {
		t.Fatal(err)
	}
	versions := store.NumVersions(storage.MainLoop)
	commits := int(e.StatsSnapshot().Commits)
	// Without compaction every commit would be a retained version; with it
	// the store holds roughly one version per vertex plus a small tail.
	if versions >= commits/2 {
		t.Fatalf("compaction ineffective: %d versions retained of %d commits", versions, commits)
	}
	checkSSSP(t, e, tuples)
}

func TestCompactionSparesPinnedForks(t *testing.T) {
	tuples := datasets.PowerLawGraph(100, 3, 73)
	half := len(tuples) / 2
	store := storage.NewMVCCStore()
	e, err := New(Config{
		Processors: 2, DelayBound: 4, Kind: MainLoop,
		LoopID: storage.MainLoop, Store: store,
		Program: ssspProg{source: 0}, Seed: 42,
		CompactEvery: 2, // aggressive
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	defer e.Stop()
	e.IngestAll(tuples[:half])
	if err := e.WaitSettled(waitFor); err != nil {
		t.Fatal(err)
	}
	// Fork, then keep the main loop running hard before the branch reads
	// anything: the pin must keep the snapshot readable.
	br, _, err := e.ForkBranch(storage.LoopID(1), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer br.Stop()
	e.IngestAll(tuples[half:])
	if err := e.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	if err := br.WaitDone(waitFor); err != nil {
		t.Fatal(err)
	}
	checkSSSP(t, br, tuples[:half])
	checkSSSP(t, e, tuples)
}

// TestReshardPinsResumeView: a Reshard replacement bootstraps lazily over
// its own history for as long as it runs, so Reshard must take a store pin
// at the resume iteration beside its handle, for readers of the live store.
// An aggressive Compact while the replacement lives is clamped at resume —
// every vertex's resume-view version stays readable — and once the
// replacement stops the pin is released and the same compact reclaims.
func TestReshardPinsResumeView(t *testing.T) {
	tuples := datasets.PowerLawGraph(120, 3, 77)
	half := len(tuples) / 2
	store := storage.NewMVCCStore()
	e := newSSSPEngine(t, 2, 16, store, storage.MainLoop)
	e.Start()
	e.IngestAll(tuples[:half])

	ne, err := Reshard(e, 3, nil, waitFor)
	if err != nil {
		t.Fatal(err)
	}
	resume := ne.Config().StartIteration - 1
	var atResume []stream.VertexID
	if err := store.Scan(storage.MainLoop, resume, func(r storage.Record) error {
		atResume = append(atResume, r.Vertex)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(atResume) == 0 {
		t.Fatal("no versions at the resume iteration; test needs pre-reshard state")
	}
	// Commit new versions above resume, then compact with an unbounded
	// floor: the pin must clamp it at resume.
	ne.IngestAll(tuples[half:])
	if err := ne.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	if err := store.Compact(storage.MainLoop, math.MaxInt64); err != nil {
		t.Fatal(err)
	}
	for _, v := range atResume {
		if _, _, err := store.Latest(storage.MainLoop, v, resume); err != nil {
			t.Fatalf("resume-view version of vertex %d dropped while the replacement lives: %v", v, err)
		}
	}
	checkSSSP(t, ne, tuples)

	ne.Stop()
	if err := store.Compact(storage.MainLoop, math.MaxInt64); err != nil {
		t.Fatal(err)
	}
	reclaimed := false
	for _, v := range atResume {
		if _, _, err := store.Latest(storage.MainLoop, v, resume); err != nil {
			reclaimed = true
			break
		}
	}
	if !reclaimed {
		t.Fatal("pin outlived the resharded engine: no resume-view version was reclaimed")
	}
}
