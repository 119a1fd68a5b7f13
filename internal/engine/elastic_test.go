package engine

import (
	"errors"
	"maps"
	"math"
	"sync"
	"testing"
	"time"

	"tornado/internal/datasets"
	"tornado/internal/delta"
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
		Store:         storage.NewMVCCStore(),
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
		Store:         storage.NewMVCCStore(),
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
		Store:             storage.NewMVCCStore(),
		Program:           ssspProg{source: 0},
		Seed:              97,
		HeartbeatInterval: heartbeatFor(nil),
		suspectAfter:      suspectAfterFor(nil),
		restartBackoff:    time.Millisecond,
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
	if err := e.WaitQuiesce(waitFor); err != nil {
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

// dflowState / dflowProg: an additive delta program whose pendings can sit
// below the threshold for good. A value input adds its int64 payload to the
// vertex's Src mass; every commit ships the cumulative Src to the vertex's
// targets, and a consumer's pending is the sum of the increments it gathered.
// Total is the mass a vertex has consumed. Priority logs the last pending the
// engine scored for each vertex, which lets a test read the engine's pending
// slots from outside the processor goroutines.
type dflowState struct {
	Src   int64
	Total int64
	Cum   map[stream.VertexID]int64
}

type dflowProg struct {
	mu     *sync.Mutex
	scored map[stream.VertexID]int64
}

func init() { RegisterStateType(&dflowState{}) }

func newDflowProg() dflowProg {
	return dflowProg{mu: new(sync.Mutex), scored: make(map[stream.VertexID]int64)}
}

// takeScored returns the pendings scored since the last call, and forgets them.
func (p dflowProg) takeScored() map[stream.VertexID]int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := maps.Clone(p.scored)
	clear(p.scored)
	return out
}

func (dflowProg) Identity() any           { return int64(0) }
func (dflowProg) Accumulate(a, b any) any { return a.(int64) + b.(int64) }
func (dflowProg) Threshold() float64      { return 4 }
func (dflowProg) Init(ctx delta.Context) {
	ctx.SetState(&dflowState{Cum: make(map[stream.VertexID]int64)})
}

func (p dflowProg) Priority(ctx delta.Context, pending any) float64 {
	n := pending.(int64)
	p.mu.Lock()
	p.scored[ctx.ID()] = n
	p.mu.Unlock()
	return math.Abs(float64(n))
}

func (dflowProg) OnInput(ctx delta.Context, t stream.Tuple) {
	if t.Kind == stream.KindValue {
		ctx.State().(*dflowState).Src += t.Value.(int64)
	}
}

func (dflowProg) Gather(ctx delta.Context, src stream.VertexID, value any, _ bool) (any, bool) {
	st := ctx.State().(*dflowState)
	d := value.(int64) - st.Cum[src]
	st.Cum[src] = value.(int64)
	return d, d != 0
}

func (dflowProg) Update(ctx delta.Context, pending any) {
	st := ctx.State().(*dflowState)
	st.Total += pending.(int64)
	for _, t := range ctx.Targets() {
		ctx.EmitCum(t, st.Src)
	}
}

// TestDeltaParkedPendingSurvivesHandoff pins the selective-activation
// contract across a migration: pendings parked below the program's threshold
// travel with their vertices, arrive with the same mass, and stay parked at
// the new owner until a later delta lifts them over the threshold. The loop
// must then sit where an unmigrated twin fed the same stream sits. Losing or
// changing a parked pending would leave it at a wrong fixed point.
func TestDeltaParkedPendingSurvivesHandoff(t *testing.T) {
	// Sources 0..39 feed sinks 100..139, two sources a sink; the sinks are
	// the range that migrates.
	const n = 40
	var edges, drip, lift []stream.Tuple
	for i := 0; i < n; i++ {
		src := stream.VertexID(i)
		edges = append(edges,
			stream.AddEdge(stream.Timestamp(2*i), src, stream.VertexID(100+i)),
			stream.AddEdge(stream.Timestamp(2*i+1), src, stream.VertexID(100+(i+1)%n)))
		drip = append(drip, stream.Value(stream.Timestamp(2*n+i), src, int64(1)))
		lift = append(lift, stream.Value(stream.Timestamp(3*n+i), src, int64(4)))
	}
	run := func(migrate bool) map[stream.VertexID]int64 {
		prog := newDflowProg()
		e, err := New(Config{
			Processors:    2,
			MaxProcessors: 3,
			DelayBound:    8,
			Kind:          MainLoop,
			LoopID:        storage.MainLoop,
			Store:         storage.NewMVCCStore(),
			Delta:         prog,
			Seed:          101,
		})
		if err != nil {
			t.Fatal(err)
		}
		e.Start()
		defer e.Stop()
		for _, wave := range [][]stream.Tuple{edges, drip} {
			e.IngestAll(wave)
			if err := e.WaitQuiesce(waitFor); err != nil {
				t.Fatal(err)
			}
		}
		// Every sink has gathered 1 from each of its two sources: a pending
		// of 2, parked under the threshold of 4.
		parked := prog.takeScored()
		for i := 0; i < n; i++ {
			id := stream.VertexID(100 + i)
			if got, ok := parked[id]; !ok || got != 2 {
				t.Fatalf("sink %d scored pending %d (scored %v); want 2 parked", id, got, ok)
			}
		}
		if migrate {
			if err := e.Migrate(VertexRange{Lo: 100, Hi: FullRange().Hi}, 2); err != nil {
				t.Fatal(err)
			}
			if err := e.WaitQuiesce(waitFor); err != nil {
				t.Fatal(err)
			}
			if loads := e.PartitionLoads(); loads[2].Vertices != n {
				t.Fatalf("spare hosts %d vertices after migration; want the %d sinks: %+v", loads[2].Vertices, n, loads)
			}
			// The new owner schedules every installed pending once: each
			// must carry the mass it left with.
			arrived := prog.takeScored()
			for i := 0; i < n; i++ {
				id := stream.VertexID(100 + i)
				if got, ok := arrived[id]; !ok || got != parked[id] {
					t.Fatalf("sink %d arrived with pending %d (scored %v); it left with %d", id, got, ok, parked[id])
				}
			}
		}
		e.IngestAll(lift)
		if err := e.WaitQuiesce(waitFor); err != nil {
			t.Fatal(err)
		}
		totals := make(map[stream.VertexID]int64)
		if err := e.ScanStates(math.MaxInt64, func(id stream.VertexID, _ int64, state any) error {
			totals[id] = state.(*dflowState).Total
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		checkQuiescent(t, e)
		return totals
	}
	twin, moved := run(false), run(true)
	for i := 0; i < n; i++ {
		// 2 parked + 4 from each source, every lift significant on its
		// own: consumed in full, whatever order the lifts arrive in.
		if id := stream.VertexID(100 + i); twin[id] != 10 {
			t.Fatalf("unmigrated sink %d consumed %d; want 10", id, twin[id])
		}
	}
	if !maps.Equal(moved, twin) {
		t.Fatalf("migrated loop's totals %v differ from the unmigrated twin's %v", moved, twin)
	}
}

// TestMigrationCarriesAppliedJournalSeqs: a vertex that ships with inputs
// applied but not yet committed takes their journal sequences along, so the
// new owner's commit is what stamps them. The master is paused at B=1, which
// leaves every second-wave input applied on a cap-blocked vertex — exactly
// the state the freeze then catches.
func TestMigrationCarriesAppliedJournalSeqs(t *testing.T) {
	const n = 20
	e, err := New(Config{Processors: 2, MaxProcessors: 3, DelayBound: 1, Kind: MainLoop, LoopID: storage.MainLoop,
		Store: storage.NewMVCCStore(), Program: ssspProg{source: 100}, Seed: 5})
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
		Store:            storage.NewMVCCStore(),
		Program:          ssspProg{source: 0},
		Seed:             103,
		MaxPendingInputs: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	defer e.Stop()

	// Pause one processor so its share of the ingested inputs stays
	// admitted-but-unapplied: the gate provably holds depth.
	e.PauseProcessor(1)
	e.IngestAll(tuples)
	waitUntil(t, waitFor, func() bool { return e.FlowSnapshot().GateDepth > 0 },
		"admission gate never held depth with a paused processor")

	if err := e.Reshard(4, waitFor); !errors.Is(err, ErrIngestionActive) {
		t.Fatalf("Reshard over a live ingestion backlog returned %v; want ErrIngestionActive", err)
	}

	e.ResumeProcessor(1)
	if err := e.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	if err := e.Reshard(4, waitFor); err != nil {
		t.Fatal(err)
	}
	checkSSSP(t, e, tuples)
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
