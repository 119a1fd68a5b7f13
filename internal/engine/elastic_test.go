package engine

import (
	"errors"
	"maps"
	"math"
	"slices"
	"sync"
	"testing"

	"tornado/internal/datasets"
	"tornado/internal/delta"
	"tornado/internal/obs"
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

// TestLiveMigrationUnderIngestion (value mode): half the vertex ID space
// migrates onto a spare slot while another goroutine keeps ingesting — its
// chunks wait at the repartition's stop and land after the restart — and the
// result is still the exact reference fixed point. A second migration moves
// the range again, exercising override folding.
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
	// The restarted loop hosts vertices as traffic reaches them.
	extra := datasets.PowerLawGraph(240, 1, 85)
	e.IngestAll(extra[:len(extra)/2])
	if err := e.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	if loads := e.PartitionLoads(); loads[2].Vertices == 0 {
		t.Fatalf("destination hosts no vertices after migration and traffic: %+v", loads)
	}

	// Move the same range again (the previous destination gives it up) and
	// keep streaming: still exact.
	if err := e.Migrate(VertexRange{Lo: 0, Hi: 119}, 1); err != nil {
		t.Fatal(err)
	}
	e.IngestAll(extra[len(extra)/2:])
	if err := e.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	checkSSSP(t, e, slices.Concat(tuples, extra))
	if got := e.PlanEpoch(); got != 2 {
		t.Fatalf("plan epoch %d after two migrations; want 2", got)
	}
	checkQuiescent(t, e)
}

// TestMigrateRejectsConcurrent pins the destination bounds check and what
// a concurrent Migrate meets: not a refusal but the first one's admission
// stop. The second waits while the first waits for rest, then both land,
// one epoch each, and the loop stays exact.
func TestMigrateRejectsConcurrent(t *testing.T) {
	e := newElasticSSSP(t, 2, 3, 107)
	e.Start()
	defer e.Stop()
	tuples := []stream.Tuple{stream.AddEdge(1, 0, 1), stream.AddEdge(2, 1, 2), stream.AddEdge(3, 2, 3)}
	e.IngestAll(tuples)
	if err := e.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	for _, dest := range []int{-1, 3, 5} {
		if err := e.Migrate(FullRange(), dest); err == nil {
			t.Fatalf("Migrate to out-of-range slot %d succeeded", dest)
		}
	}
	if got := e.PlanEpoch(); got != 0 {
		t.Fatalf("plan epoch %d after refused migrations; want 0", got)
	}

	release := e.HoldQuiesce()
	first, second := make(chan error, 1), make(chan error, 1)
	go func() { first <- e.Migrate(VertexRange{Lo: 0, Hi: 1}, 2) }()
	waitUntil(t, waitFor, func() bool { return AdmissionStopped(e) }, "Migrate never stopped admission")
	go func() { second <- e.Migrate(VertexRange{Lo: 2, Hi: 3}, 2) }()
	select {
	case err := <-first:
		t.Fatalf("Migrate returned %v while the loop was held from rest", err)
	case err := <-second:
		t.Fatalf("concurrent Migrate returned %v while the first held the stop", err)
	default:
	}
	release()
	for i, ch := range []chan error{first, second} {
		if err := <-ch; err != nil {
			t.Fatalf("migration %d: %v", i+1, err)
		}
	}
	if st := e.PlanStats(); st.Epoch != 2 || st.Migrations != 2 || !st.Active[2] {
		t.Fatalf("PlanStats epoch=%d migrations=%d active=%v; want 2/2 with slot 2 active",
			st.Epoch, st.Migrations, st.Active)
	}
	for id := stream.VertexID(0); id <= 3; id++ {
		if got := e.owner(id); got != 2 {
			t.Fatalf("vertex %d owned by %d after both migrations; want 2", id, got)
		}
	}
	more := []stream.Tuple{stream.AddEdge(4, 3, 4), stream.AddEdge(5, 0, 2)}
	e.IngestAll(more)
	if err := e.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	checkSSSP(t, e, slices.Concat(tuples, more))
	checkQuiescent(t, e)
}

// TestLiveMigrationDeltaUnderIngestion is the delta-mode twin: the loop
// rests with its pendings persisted, and the restart under the new plan
// loses none of them mid-stream.
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
// exact throughout. A restarted loop hosts vertices lazily, so every hosted
// count is read after traffic, and each split follows some.
func TestScaleOutScaleIn(t *testing.T) {
	tuples := datasets.PowerLawGraph(200, 3, 89)
	extra := datasets.PowerLawGraph(200, 1, 90)
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
	e.IngestAll(tuples[half:])
	if err := e.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	if loads := e.PartitionLoads(); loads[spare].Vertices == 0 {
		t.Fatalf("scaled-out slot hosts no vertices: %+v", loads)
	}
	checkSSSP(t, e, tuples)

	if err := e.ScaleIn(spare); err != nil {
		t.Fatal(err)
	}
	st = e.PlanStats()
	if n := activePlanSlots(st); n != 2 || st.Active[spare] {
		t.Fatalf("scale-in did not retire slot %d: %+v", spare, st.Active)
	}
	checkSSSP(t, e, tuples)

	// Exhaust the spare slots: two more splits fit, the third has nowhere
	// to go.
	third := len(extra) / 3
	for i := range 2 {
		e.IngestAll(extra[i*third : (i+1)*third])
		if err := e.WaitQuiesce(waitFor); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			if loads := e.PartitionLoads(); loads[spare].Vertices != 0 {
				t.Fatalf("retired slot %d hosts vertices: %+v", spare, loads)
			}
		}
		if _, err := e.ScaleOut(-1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.ScaleOut(-1); !errors.Is(err, ErrNoSpare) {
		t.Fatalf("ScaleOut with a full plan returned %v; want ErrNoSpare", err)
	}
	e.IngestAll(extra[2*third:])
	if err := e.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	checkSSSP(t, e, slices.Concat(tuples, extra))
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

// TestMigrationCrashAborts: a processor crash while a migration waits for
// the loop to rest — a paused processor holds its backlog, so rest cannot
// come first — aborts the migration with the pre-epoch plan intact. The
// crash's recovery restores the loop, the fixed point stays exact, and a
// retry of the same migration lands.
func TestMigrationCrashAborts(t *testing.T) {
	tuples := datasets.PowerLawGraph(160, 3, 97)
	e, err := New(Config{
		Processors: 3,
		DelayBound: 8,
		Kind:       MainLoop,
		LoopID:     storage.MainLoop,
		Store:      storage.NewMVCCStore(),
		Program:    ssspProg{source: 0},
		Seed:       97,
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
	e.PauseProcessor(0)
	e.IngestAll(tuples[half:])
	moved := make(chan error, 1)
	go func() { moved <- e.Migrate(VertexRange{Lo: 80, Hi: FullRange().Hi}, 2) }()
	waitUntil(t, waitFor, func() bool { return AdmissionStopped(e) }, "Migrate never stopped admission")
	e.CrashProcessor(1)

	if err := <-moved; !errors.Is(err, ErrMigrationAborted) {
		t.Fatalf("Migrate with a crash during the drain returned %v; want ErrMigrationAborted", err)
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
	// The recovered loop answers exactly: the journal replayed the backlog
	// the crash discarded.
	checkSSSP(t, e, tuples)

	// The same migration, retried, lands.
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
// rest in the checkpoint, and the new owner reads them back and keeps them
// parked until a later delta lifts them over the threshold. The loop must
// then sit where an unmigrated twin fed the same stream sits. Losing or
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

// TestRepartitionStopsAdmission pins the stop: a migration holds a
// concurrent IngestAll at the stop until the loop rests and restarts, while
// /metrics and StatsSnapshot keep answering. A paused processor holds the
// rest back with part of a wave admitted but not committed; it commits
// before the restart, so the journal ends empty and SSSP exact. A crash
// during a later drain aborts with the plan unchanged, and once the crash's
// own restart has run a retry lands.
func TestRepartitionStopsAdmission(t *testing.T) {
	const n = 20
	hub := obs.NewHub(0)
	e, err := New(Config{Processors: 2, MaxProcessors: 3, DelayBound: 8, Kind: MainLoop, LoopID: storage.MainLoop,
		Store: storage.NewMVCCStore(), Program: ssspProg{source: 0}, Seed: 5, Obs: hub})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	defer e.Stop()
	var first, second, held []stream.Tuple
	for i := 0; i < n; i++ {
		first = append(first, stream.AddEdge(stream.Timestamp(i), stream.VertexID(100+i), stream.VertexID(200+i)))
		second = append(second, stream.AddEdge(stream.Timestamp(n+i), stream.VertexID(100+i), stream.VertexID(300+i)))
		held = append(held, stream.AddEdge(stream.Timestamp(2*n+i), 0, stream.VertexID(100+i)))
	}
	e.IngestAll(first)
	if err := e.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	stuck := 0 // second-wave inputs for the paused processor
	for _, tu := range second {
		if e.owner(routeVertex(tu)) == 1 {
			stuck++
		}
	}
	if stuck == 0 || stuck == n {
		t.Fatalf("%d of %d second-wave inputs route to processor 1; want some, not all", stuck, n)
	}
	e.PauseProcessor(1)
	e.IngestAll(second)
	waitUntil(t, waitFor, func() bool { un, _ := e.JournalSize(); return un == stuck },
		"the unpaused processor never committed its share of the second wave")

	moved := make(chan error, 1)
	go func() { moved <- e.Migrate(VertexRange{Lo: 100, Hi: 100 + n - 1}, 2) }()
	waitUntil(t, waitFor, func() bool { return AdmissionStopped(e) }, "Migrate never stopped admission")
	ingested := make(chan struct{})
	go func() {
		defer close(ingested)
		e.IngestAll(held)
	}()
	if got := scrapeGauge(t, hub, "tornado_elastic_plan_epoch"); got != 0 {
		t.Fatalf("tornado_elastic_plan_epoch = %v during the drain; want 0", got)
	}
	if s := e.StatsSnapshot(); s.InputMsgs != int64(2*n-stuck) || e.JournalSeq() != 2*n {
		t.Fatalf("during the drain: %d inputs applied, journal at %d; want %d and %d, nothing past the stop",
			s.InputMsgs, e.JournalSeq(), 2*n-stuck, 2*n)
	}
	select {
	case err := <-moved:
		t.Fatalf("Migrate returned %v with a processor paused; it must wait for rest", err)
	default:
	}
	e.ResumeProcessor(1)
	if err := <-moved; err != nil {
		t.Fatal(err)
	}
	<-ingested
	if err := e.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	if un, _ := e.JournalSize(); un != 0 {
		t.Fatalf("%d journal entries never committed across the repartition", un)
	}
	all := slices.Concat(first, second, held)
	checkSSSP(t, e, all)
	if got := e.PlanEpoch(); got != 1 {
		t.Fatalf("plan epoch %d after one migration; want 1", got)
	}
	if got := scrapeGauge(t, hub, "tornado_elastic_migration_seconds_count"); got != 1 {
		t.Fatalf("tornado_elastic_migration_seconds_count = %v; want one stall", got)
	}

	// A crash during the drain: the migration aborts and the plan stays
	// where it was. The hold keeps the loop from resting, so only the crash
	// can end the wait.
	before := e.StatsSnapshot().Recoveries
	release := e.HoldQuiesce()
	go func() { moved <- e.Migrate(VertexRange{Lo: 100, Hi: 100 + n - 1}, 0) }()
	waitUntil(t, waitFor, func() bool { return AdmissionStopped(e) }, "Migrate never stopped admission")
	e.CrashProcessor(1)
	if err := <-moved; !errors.Is(err, ErrMigrationAborted) {
		t.Fatalf("Migrate with a crash during the drain returned %v; want ErrMigrationAborted", err)
	}
	release()
	if got := e.PlanEpoch(); got != 1 {
		t.Fatalf("plan epoch %d after an aborted migration; want 1", got)
	}
	waitUntil(t, waitFor, func() bool { return e.StatsSnapshot().Recoveries > before },
		"the crash during the drain never recovered")
	if err := e.Migrate(VertexRange{Lo: 100, Hi: 100 + n - 1}, 0); err != nil {
		t.Fatal(err)
	}
	if got := e.PlanEpoch(); got != 2 {
		t.Fatalf("plan epoch %d after the retry; want 2", got)
	}
	if err := e.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	checkSSSP(t, e, all)
	checkQuiescent(t, e)
}

// TestReshardWaitsForIngestionBacklog: a Reshard over a paused processor's
// admitted-but-unapplied backlog holds admission and returns only once the
// processor resumes and the loop rests, and the backlog is reflected
// exactly afterwards.
func TestReshardWaitsForIngestionBacklog(t *testing.T) {
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

	resharded := make(chan error, 1)
	go func() { resharded <- e.Reshard(4, waitFor) }()
	waitUntil(t, waitFor, func() bool { return AdmissionStopped(e) }, "Reshard never stopped admission")
	select {
	case err := <-resharded:
		t.Fatalf("Reshard over a paused processor's backlog returned %v before ResumeProcessor", err)
	default:
	}
	e.ResumeProcessor(1)
	if err := <-resharded; err != nil {
		t.Fatal(err)
	}
	if got := e.PlanEpoch(); got != 1 {
		t.Fatalf("plan epoch %d after Reshard; want 1", got)
	}
	checkSSSP(t, e, tuples)
	checkQuiescent(t, e)
}
