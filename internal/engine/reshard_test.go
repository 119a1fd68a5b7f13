package engine

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"tornado/internal/datasets"
	"tornado/internal/obs"
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

	if err := e.Reshard(5, waitFor); err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	// The resharded engine answers for the pre-reshard input...
	checkSSSP(t, e, tuples[:half])
	// ...continues ingesting on the new partitioning...
	e.IngestAll(tuples[half:])
	if err := e.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	checkSSSP(t, e, tuples)
	// ...and stamps new versions above the resumed history.
	if got := e.Notified(); got <= 0 {
		t.Fatalf("resharded loop never advanced: notified=%d", got)
	}
	loads := e.PartitionLoads()
	if len(loads) != 5 {
		t.Fatalf("PartitionLoads reported %d processors; want 5", len(loads))
	}
	active := 0
	for _, l := range loads {
		if l.Vertices > 0 {
			active++
		}
	}
	if active < 4 {
		t.Fatalf("vertices did not spread across the new processors: %v", loads)
	}
}

// TestReshardIsAPlanTransition: Reshard restarts the same engine under the
// next plan epoch — the base partition over the new count, no overrides —
// so its counters and recovery log carry on, a ScaleOut's override does not
// survive it, and with a spare slot left a later ScaleOut lands on a slot
// that hosts nothing.
func TestReshardIsAPlanTransition(t *testing.T) {
	tuples := datasets.PowerLawGraph(200, 3, 63)
	half := len(tuples) / 2
	hub := obs.NewHub(0)
	e, err := New(Config{Processors: 2, MaxProcessors: 4, DelayBound: 8, Kind: MainLoop, LoopID: storage.MainLoop,
		Store: storage.NewMVCCStore(), Program: ssspProg{source: 0}, Seed: 63, Obs: hub})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	defer e.Stop()
	e.IngestAll(tuples[:half])
	if err := e.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	if _, err := e.ScaleOut(-1); err != nil {
		t.Fatal(err)
	}
	epoch, commits := e.PlanEpoch(), e.StatsSnapshot().Commits

	if err := e.Reshard(3, waitFor); err != nil {
		t.Fatal(err)
	}
	st := e.PlanStats()
	if st.Epoch != epoch+1 || st.BaseProcessors != 3 || st.MaxProcessors != 4 || len(st.Overrides) != 0 {
		t.Fatalf("plan after Reshard(3): %+v; want epoch %d, base 3 of 4 slots, no overrides", st, epoch+1)
	}
	if got := scrapeGauge(t, hub, "tornado_elastic_plan_epoch"); got != float64(epoch+1) {
		t.Fatalf("tornado_elastic_plan_epoch = %v; want %d", got, epoch+1)
	}
	if got := e.StatsSnapshot().Commits; got < commits {
		t.Fatalf("Commits went from %d to %d across Reshard", commits, got)
	}
	if got := scrapeGauge(t, hub, "tornado_commits_total"); got < float64(commits) {
		t.Fatalf("tornado_commits_total = %v after Reshard; was %d before", got, commits)
	}
	var reshards []RecoveryEvent
	for _, ev := range e.RecoveryLog() {
		if ev.Kind == EventReshard {
			reshards = append(reshards, ev)
		}
	}
	if want := fmt.Sprintf("epoch %d", epoch+1); len(reshards) != 1 || !strings.Contains(reshards[0].Detail, want) {
		t.Fatalf("reshard events %+v; want one at %s", reshards, want)
	}

	// The resharded loop hosts vertices lazily, as traffic reaches them.
	e.IngestAll(tuples[half:])
	if err := e.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	before := e.PartitionLoads()
	spare, err := e.ScaleOut(-1)
	if err != nil {
		t.Fatal(err)
	}
	if spare != 3 || before[3].Vertices != 0 {
		t.Fatalf("ScaleOut after Reshard(3) landed on slot %d (loads before: %+v); want the empty spare 3", spare, before)
	}
	if err := e.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	checkSSSP(t, e, tuples)
	checkQuiescent(t, e)
}

func TestReshardRejectsBranch(t *testing.T) {
	e := newSSSPEngine(t, 2, 8, storage.NewMVCCStore(), storage.MainLoop)
	e.Start()
	defer e.Stop()
	e.Ingest(stream.AddEdge(1, 0, 1))
	if err := e.WaitQuiesce(waitFor); err != nil {
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
	if err := br.Reshard(4, waitFor); err == nil {
		t.Fatal("resharding a branch should fail")
	}
}

func TestCompactionBoundsMainLoopVersions(t *testing.T) {
	tuples := datasets.PowerLawGraph(100, 3, 71)
	store := storage.NewMVCCStore()
	e, err := New(Config{
		Processors: 2, DelayBound: 4, Kind: MainLoop,
		LoopID: storage.MainLoop, Store: store,
		Program: ssspProg{source: 0}, Seed: 42,
		compactEvery: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	defer e.Stop()
	e.IngestAll(tuples)
	if err := e.WaitQuiesce(waitFor); err != nil {
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
		compactEvery: 2, // aggressive
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	defer e.Stop()
	e.IngestAll(tuples[:half])
	if err := e.WaitQuiesce(waitFor); err != nil {
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

// TestReshardPinsResumeView: the resharded loop bootstraps lazily over its
// own history through the snapshot handle its restart took at the resume
// iteration, so no store pin is needed: even after a Compact with an
// unbounded floor reclaims every superseded version of the live tree, the
// loop still reads its exact fixed point — vertices it never touched again
// through the handle, the rest from its own commits.
func TestReshardPinsResumeView(t *testing.T) {
	tuples := datasets.PowerLawGraph(120, 3, 77)
	half := len(tuples) / 2
	store := storage.NewMVCCStore()
	e := newSSSPEngine(t, 2, 16, store, storage.MainLoop)
	e.Start()
	defer e.Stop()
	e.IngestAll(tuples[:half])

	if err := e.Reshard(3, waitFor); err != nil {
		t.Fatal(err)
	}
	if err := store.Compact(storage.MainLoop, math.MaxInt64); err != nil {
		t.Fatal(err)
	}
	checkSSSP(t, e, tuples[:half])
	// Commit new versions above resume, compact again, and read the whole
	// fixed point once more.
	e.IngestAll(tuples[half:])
	if err := e.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	if err := store.Compact(storage.MainLoop, math.MaxInt64); err != nil {
		t.Fatal(err)
	}
	checkSSSP(t, e, tuples)
	checkQuiescent(t, e)
}
