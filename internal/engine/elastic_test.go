package engine

import (
	"errors"
	"testing"
	"time"

	"tornado/internal/datasets"
	"tornado/internal/storage"
	"tornado/internal/stream"
)

// newElasticSSSP builds a value-mode SSSP engine with spare processor slots.
func newElasticSSSP(t *testing.T, procs, maxProcs int, seed int64) *Engine {
	t.Helper()
	e, err := New(Config{
		Processors:    procs,
		MaxProcessors: maxProcs,
		DelayBound:    8,
		Kind:          MainLoop,
		LoopID:        storage.MainLoop,
		Store:         storage.NewMemStore(),
		Program:       ssspProg{source: 0},
		Seed:          seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestLiveMigrationUnderIngestion is the tentpole acceptance test (value
// mode): half the vertex ID space migrates onto a spare slot WHILE the loop
// keeps ingesting, and the result is still the exact reference fixed point.
// A second migration moves the range again, exercising override folding.
func TestLiveMigrationUnderIngestion(t *testing.T) {
	tuples := datasets.WithRemovals(datasets.PowerLawGraph(240, 3, 83), 0.1, 11)
	e := newElasticSSSP(t, 2, 4, 83)
	e.Start()
	defer e.Stop()

	third := len(tuples) / 3
	e.IngestAll(tuples[:third])
	if err := e.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		e.IngestAll(tuples[third:])
	}()
	if err := e.Migrate(VertexRange{Lo: 0, Hi: 119}, 2); err != nil {
		t.Fatal(err)
	}
	<-done
	if err := e.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	checkSSSP(t, e, tuples)

	st := e.PlanStats()
	if st.Epoch != 1 || st.Migrations != 1 {
		t.Fatalf("PlanStats epoch=%d migrations=%d; want 1/1", st.Epoch, st.Migrations)
	}
	if !st.Active[2] {
		t.Fatalf("destination slot not active in plan: %+v", st.Active)
	}
	if st.MigratedVertices == 0 {
		t.Fatal("migration moved no vertices")
	}
	if loads := e.PartitionLoads(); loads[2].Vertices == 0 {
		t.Fatalf("destination hosts no vertices after migration: %+v", loads)
	}

	// Move the same range again (sources now include the previous
	// destination) and keep streaming: still exact.
	if err := e.Migrate(VertexRange{Lo: 0, Hi: 119}, 1); err != nil {
		t.Fatal(err)
	}
	extra := datasets.PowerLawGraph(240, 1, 85)
	e.IngestAll(extra)
	if err := e.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	checkSSSP(t, e, append(append([]stream.Tuple{}, tuples...), extra...))
	if got := e.PlanEpoch(); got != 2 {
		t.Fatalf("plan epoch %d after two migrations; want 2", got)
	}
	checkQuiescent(t, e)
}

// TestLiveMigrationDeltaUnderIngestion is the delta-mode twin: pending
// accumulators and the selective-activation queue must survive the hand-off
// mid-stream.
func TestLiveMigrationDeltaUnderIngestion(t *testing.T) {
	tuples := datasets.WithRemovals(datasets.PowerLawGraph(240, 3, 87), 0.1, 13)
	e, err := New(Config{
		Processors:    2,
		MaxProcessors: 4,
		DelayBound:    8,
		Kind:          MainLoop,
		LoopID:        storage.MainLoop,
		Store:         storage.NewMemStore(),
		Delta:         dssspProg{source: 0},
		Seed:          87,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	defer e.Stop()

	third := len(tuples) / 3
	e.IngestAll(tuples[:third])
	if err := e.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		e.IngestAll(tuples[third:])
	}()
	if err := e.Migrate(VertexRange{Lo: 0, Hi: 119}, 2); err != nil {
		t.Fatal(err)
	}
	<-done
	if err := e.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	checkDSSSP(t, e, tuples)
	if got := e.PlanEpoch(); got != 1 {
		t.Fatalf("plan epoch %d; want 1", got)
	}
	if s := e.StatsSnapshot(); s.DeltaQueueDepth != 0 {
		t.Fatalf("DeltaQueueDepth = %d after quiesce, want 0", s.DeltaQueueDepth)
	}
	checkQuiescent(t, e)
}

// TestScaleOutScaleIn exercises the split/merge operations end to end: a
// hot partition splits onto a spare (plan grows), the drained slot retires
// (plan shrinks), spares exhaust with a typed error, and the answer stays
// exact throughout.
func TestScaleOutScaleIn(t *testing.T) {
	tuples := datasets.PowerLawGraph(200, 3, 89)
	e := newElasticSSSP(t, 2, 4, 89)
	e.Start()
	defer e.Stop()

	half := len(tuples) / 2
	e.IngestAll(tuples[:half])
	if err := e.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}

	spare, err := e.ScaleOut(-1)
	if err != nil {
		t.Fatal(err)
	}
	if spare != 2 {
		t.Fatalf("ScaleOut picked slot %d; want first spare 2", spare)
	}
	st := e.PlanStats()
	if n := activePlanSlots(st); n != 3 {
		t.Fatalf("%d active slots after scale-out; want 3", n)
	}
	if loads := e.PartitionLoads(); loads[spare].Vertices == 0 {
		t.Fatalf("scaled-out slot hosts no vertices: %+v", loads)
	}
	e.IngestAll(tuples[half:])
	if err := e.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	checkSSSP(t, e, tuples)

	if err := e.ScaleIn(spare); err != nil {
		t.Fatal(err)
	}
	st = e.PlanStats()
	if n := activePlanSlots(st); n != 2 || st.Active[spare] {
		t.Fatalf("scale-in did not retire slot %d: %+v", spare, st.Active)
	}
	// The cutover message that clears the drained slot's share entries is
	// processed asynchronously after ScaleIn returns.
	waitUntil(t, waitFor, func() bool { return e.PartitionLoads()[spare].Vertices == 0 },
		"retired slot never released its hosted vertices")
	checkSSSP(t, e, tuples)

	// Exhaust the spare slots: two more splits fit, the third has nowhere
	// to go.
	if _, err := e.ScaleOut(-1); err != nil {
		t.Fatal(err)
	}
	if _, err := e.ScaleOut(-1); err != nil {
		t.Fatal(err)
	}
	if _, err := e.ScaleOut(-1); !errors.Is(err, ErrNoSpare) {
		t.Fatalf("ScaleOut with a full plan returned %v; want ErrNoSpare", err)
	}
	if err := e.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	checkSSSP(t, e, tuples)
	checkQuiescent(t, e)
}

func activePlanSlots(st PlanStats) int {
	n := 0
	for _, a := range st.Active {
		if a {
			n++
		}
	}
	return n
}

// TestMigrationCrashAborts is the chaos acceptance test: a processor crash
// armed via FaultCrashDuringMigration fires after the freeze and before the
// cutover. The migration must abort with the pre-epoch plan intact, the
// supervised recovery must restore the loop, and the fixed point must stay
// exact — after which a retry of the same migration succeeds.
func TestMigrationCrashAborts(t *testing.T) {
	tuples := datasets.PowerLawGraph(160, 3, 97)
	e, err := New(Config{
		Processors:        3,
		DelayBound:        8,
		Kind:              MainLoop,
		LoopID:            storage.MainLoop,
		Store:             storage.NewMemStore(),
		Program:           ssspProg{source: 0},
		Seed:              97,
		HeartbeatInterval: heartbeatFor(nil),
		SuspectAfter:      suspectAfterFor(nil),
		RestartBackoff:    time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	defer e.Stop()

	half := len(tuples) / 2
	e.IngestAll(tuples[:half])
	if err := e.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}

	e.InjectFaultPlan(FaultPlan{Faults: []Fault{
		{Kind: FaultCrashDuringMigration, Proc: 1},
	}})
	waitUntil(t, waitFor, func() bool { return e.migCrashArm.Load() > 0 },
		"FaultCrashDuringMigration never armed")

	err = e.Migrate(VertexRange{Lo: 80, Hi: FullRange().Hi}, 2)
	if !errors.Is(err, ErrMigrationAborted) {
		t.Fatalf("Migrate with a mid-flight crash returned %v; want ErrMigrationAborted", err)
	}
	if got := e.PlanEpoch(); got != 0 {
		t.Fatalf("plan epoch %d after aborted migration; want 0 (pre-epoch plan)", got)
	}
	if err := e.WaitSettled(waitFor); err != nil {
		s := e.StatsSnapshot()
		t.Fatalf("%v (gen=%d crashes=%d recoveries=%d log tail: %+v)",
			err, s.Generation, s.Crashes, s.Recoveries, tail(e.RecoveryLog(), 6))
	}
	if s := e.StatsSnapshot(); s.Recoveries < 1 {
		t.Fatalf("Recoveries = %d after injected crash; want >= 1", s.Recoveries)
	}
	abortLogged := false
	for _, ev := range e.RecoveryLog() {
		if ev.Kind == EventMigrationAbort {
			abortLogged = true
		}
	}
	if !abortLogged {
		t.Fatalf("recovery log has no %q event: %+v", EventMigrationAbort, tail(e.RecoveryLog(), 8))
	}

	// The recovered loop still answers exactly...
	e.IngestAll(tuples[half:])
	if err := e.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	checkSSSP(t, e, tuples)

	// ...and the same migration, retried without the fault, lands.
	if err := e.Migrate(VertexRange{Lo: 80, Hi: FullRange().Hi}, 2); err != nil {
		t.Fatal(err)
	}
	if got := e.PlanEpoch(); got != 1 {
		t.Fatalf("plan epoch %d after retried migration; want 1", got)
	}
	if err := e.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	checkSSSP(t, e, tuples)
	checkQuiescent(t, e)
}

// TestDeltaParkedPendingSurvivesHandoff pins the selective-activation
// contract across a migration: pendings parked below the (boosted)
// significance threshold must travel with their vertices and stay parked at
// the new owner, then surface through the rescan when the threshold relaxes.
// Losing a parked pending would leave the loop at a wrong fixed point.
func TestDeltaParkedPendingSurvivesHandoff(t *testing.T) {
	tuples := datasets.PowerLawGraph(160, 3, 101)
	e, err := New(Config{
		Processors:    2,
		MaxProcessors: 3,
		DelayBound:    8,
		Kind:          MainLoop,
		LoopID:        storage.MainLoop,
		Store:         storage.NewMemStore(),
		Delta:         dssspProg{source: 0},
		Seed:          101,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	defer e.Stop()

	half := len(tuples) / 2
	e.IngestAll(tuples[:half])
	if err := e.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}

	// Boost the threshold sky-high: every delta from the second ingestion
	// wave parks instead of committing.
	skippedBefore := e.stats.DeltaSkipped.Value()
	e.SetDeltaBoost(1e12)
	e.IngestAll(tuples[half:])
	if err := e.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	if e.stats.DeltaSkipped.Value() == skippedBefore {
		t.Fatal("no pendings parked under boost; the hand-off test is vacuous")
	}

	// Migrate the upper half of the ID space — parked pendings included —
	// onto the spare while the threshold is still boosted.
	if err := e.Migrate(VertexRange{Lo: 80, Hi: FullRange().Hi}, 2); err != nil {
		t.Fatal(err)
	}
	if err := e.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	if loads := e.PartitionLoads(); loads[2].Vertices == 0 {
		t.Fatalf("spare hosts no vertices after migration: %+v", loads)
	}

	// Relax the threshold: the rescan must find the parked pendings on the
	// NEW owner and drive the loop to the exact base fixed point.
	e.SetDeltaBoost(1)
	if err := e.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	checkDSSSP(t, e, tuples)
	checkQuiescent(t, e)
}

// TestMigrationCarriesAppliedJournalSeqs: a vertex that ships with inputs
// applied but not yet committed takes their journal sequences along, so the
// new owner's commit is what stamps them. The master is paused at B=1, which
// leaves every second-wave input applied on a cap-blocked vertex — exactly
// the state the freeze then catches.
func TestMigrationCarriesAppliedJournalSeqs(t *testing.T) {
	const n = 20
	e, err := New(Config{Processors: 2, MaxProcessors: 3, DelayBound: 1, Kind: MainLoop, LoopID: storage.MainLoop,
		Store: storage.NewMemStore(), Program: ssspProg{source: 100}, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	defer e.Stop()
	e.PauseMaster()
	var first, second []stream.Tuple
	for i := 0; i < n; i++ {
		first = append(first, stream.AddEdge(stream.Timestamp(i), stream.VertexID(100+i), stream.VertexID(200+i)))
		second = append(second, stream.AddEdge(stream.Timestamp(n+i), stream.VertexID(100+i), stream.VertexID(300+i)))
	}
	e.IngestAll(first)
	waitUntil(t, waitFor, func() bool { return e.StatsSnapshot().Commits >= n }, "first wave never committed at the cap")
	e.IngestAll(second)
	waitUntil(t, waitFor, func() bool { return e.StatsSnapshot().InputMsgs == 2*n }, "second wave never reached its vertices")
	if un, _ := e.JournalSize(); un != n {
		t.Fatalf("%d uncommitted journal entries with the frontier pinned; want the second wave's %d", un, n)
	}
	if err := e.Migrate(VertexRange{Lo: 100, Hi: 100 + n - 1}, 2); err != nil {
		t.Fatal(err)
	}
	if un, _ := e.JournalSize(); un != n {
		t.Fatalf("%d uncommitted journal entries after the hand-off; want %d", un, n)
	}
	e.ResumeMaster()
	if err := e.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	if un, _ := e.JournalSize(); un != 0 {
		t.Fatalf("%d journal entries never committed: their sequences were lost in the hand-off", un)
	}
	if s := e.PlanStats(); s.MigratedVertices < n {
		t.Fatalf("migration moved %d vertices; want at least the %d sources", s.MigratedVertices, n)
	}
	checkQuiescent(t, e)
}

// TestReshardRejectsActiveIngestion is the regression test for the typed
// Reshard precondition: with admitted-but-unapplied inputs in the admission
// gate, the stop-the-world Reshard must refuse with ErrIngestionActive
// instead of silently dropping the backlog; once the backlog drains the
// same call succeeds.
func TestReshardRejectsActiveIngestion(t *testing.T) {
	tuples := datasets.PowerLawGraph(120, 3, 103)
	e, err := New(Config{
		Processors:       2,
		DelayBound:       8,
		Kind:             MainLoop,
		LoopID:           storage.MainLoop,
		Store:            storage.NewMemStore(),
		Program:          ssspProg{source: 0},
		Seed:             103,
		MaxPendingInputs: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()

	// Pause one processor so its share of the ingested inputs stays
	// admitted-but-unapplied: the gate provably holds depth.
	e.PauseProcessor(1)
	e.IngestAll(tuples)
	waitUntil(t, waitFor, func() bool { return e.FlowSnapshot().GateDepth > 0 },
		"admission gate never held depth with a paused processor")

	if _, err := Reshard(e, 4, nil, waitFor); !errors.Is(err, ErrIngestionActive) {
		t.Fatalf("Reshard over a live ingestion backlog returned %v; want ErrIngestionActive", err)
	}

	e.ResumeProcessor(1)
	if err := e.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	ne, err := Reshard(e, 4, nil, waitFor)
	if err != nil {
		t.Fatal(err)
	}
	defer ne.Stop()
	checkSSSP(t, ne, tuples)
}

// TestMigrateRejectsConcurrent pins the one-at-a-time coordinator guard and
// the destination bounds check.
func TestMigrateRejectsConcurrent(t *testing.T) {
	e := newElasticSSSP(t, 2, 3, 107)
	e.Start()
	defer e.Stop()
	e.Ingest(stream.AddEdge(1, 0, 1))
	if err := e.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	if err := e.Migrate(FullRange(), 5); err == nil {
		t.Fatal("Migrate to an out-of-range slot succeeded")
	}
	e.migMu.Lock()
	e.migActive = true
	e.migMu.Unlock()
	if err := e.Migrate(FullRange(), 2); !errors.Is(err, ErrMigrationActive) {
		t.Fatalf("concurrent Migrate returned %v; want ErrMigrationActive", err)
	}
	e.migMu.Lock()
	e.migActive = false
	e.migMu.Unlock()
}
