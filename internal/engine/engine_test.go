package engine

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"tornado/internal/datasets"
	"tornado/internal/graph"
	"tornado/internal/storage"
	"tornado/internal/stream"
)

const (
	inf     = int64(1) << 40
	maxHops = 64
	waitFor = 30 * time.Second
)

// ssspState is the test vertex state: the paper's Appendix B program with a
// per-producer length map, a hop cap (so retractions terminate), and full
// recomputation at scatter so the fixed point is schedule-independent.
type ssspState struct {
	Length  int64
	Sent    int64
	SrcLens map[stream.VertexID]int64
}

type ssspProg struct {
	source stream.VertexID
}

func init() {
	RegisterStateType(&ssspState{})
}

func (p ssspProg) Init(ctx Context) {
	l := inf
	if ctx.ID() == p.source {
		l = 0
	}
	ctx.SetState(&ssspState{Length: l, Sent: inf, SrcLens: make(map[stream.VertexID]int64)})
}

func (p ssspProg) OnInput(Context, stream.Tuple) {}

func (p ssspProg) Gather(ctx Context, src stream.VertexID, _ int64, value any) {
	st := ctx.State().(*ssspState)
	st.SrcLens[src] = value.(int64)
}

func (p ssspProg) Scatter(ctx Context) {
	st := ctx.State().(*ssspState)
	l := inf
	if ctx.ID() == p.source {
		l = 0
	}
	for _, v := range st.SrcLens {
		if v+1 < l {
			l = v + 1
		}
	}
	if l > maxHops {
		l = inf
	}
	st.Length = l
	for _, t := range ctx.RemovedTargets() {
		ctx.Emit(t, inf) // tombstone: retracted producers contribute nothing
	}
	// Re-activations (branch seeds, recovery) must re-deliver the value.
	if l != st.Sent || ctx.Activated() {
		st.Sent = l
		for _, t := range ctx.Targets() {
			ctx.Emit(t, l)
		}
		return
	}
	if l < inf {
		for _, t := range ctx.AddedTargets() {
			ctx.Emit(t, l)
		}
	}
}

// refSSSP computes capped hop distances over the materialized tuple stream.
func refSSSP(tuples []stream.Tuple, source stream.VertexID) map[stream.VertexID]int64 {
	g := graph.New()
	g.ApplyAll(tuples)
	dist := make(map[stream.VertexID]int64, g.NumVertices())
	for _, v := range g.Vertices() {
		dist[v] = inf
	}
	if _, ok := dist[source]; !ok {
		dist[source] = inf
	}
	dist[source] = 0
	frontier := []stream.VertexID{source}
	for d := int64(1); len(frontier) > 0 && d <= maxHops; d++ {
		var next []stream.VertexID
		for _, u := range frontier {
			for _, w := range g.Out(u) {
				if dist[w] > d {
					dist[w] = d
					next = append(next, w)
				}
			}
		}
		frontier = next
	}
	return dist
}

func newSSSPEngine(t *testing.T, procs int, bound int64, store storage.Store, loop storage.LoopID) *Engine {
	t.Helper()
	e, err := New(Config{
		Processors: procs,
		DelayBound: bound,
		Kind:       MainLoop,
		LoopID:     loop,
		Store:      store,
		Program:    ssspProg{source: 0},
		Seed:       42,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// checkSSSP compares every vertex's engine state to the reference.
func checkSSSP(t *testing.T, e *Engine, tuples []stream.Tuple) {
	t.Helper()
	want := refSSSP(tuples, 0)
	got := make(map[stream.VertexID]int64)
	err := e.ScanStates(math.MaxInt64, func(id stream.VertexID, _ int64, state any) error {
		got[id] = state.(*ssspState).Length
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for v, w := range want {
		g, ok := got[v]
		if !ok {
			// Vertices that never commit (untouched) default to their init
			// value; only the source starts at 0.
			if w == inf || (v == 0 && w == 0) {
				continue
			}
			t.Fatalf("vertex %d missing from engine results (want %d)", v, w)
		}
		if g != w {
			t.Fatalf("vertex %d: engine length %d, reference %d", v, g, w)
		}
	}
}

func TestSSSPMatrixMatchesReference(t *testing.T) {
	tuples := datasets.PowerLawGraph(120, 3, 7)
	for _, procs := range []int{1, 4} {
		for _, bound := range []int64{1, 4, 1 << 40} {
			for _, maxBatch := range []int{0, 1} { // the default (64), and every message a frame of its own
				name := fmt.Sprintf("procs=%d/B=%d/MaxBatch=%d", procs, bound, maxBatch)
				t.Run(name, func(t *testing.T) {
					e, err := New(Config{Processors: procs, DelayBound: bound, Kind: MainLoop, LoopID: storage.MainLoop,
						Store: storage.NewMemStore(), Program: ssspProg{source: 0}, Seed: 42, MaxBatch: maxBatch})
					if err != nil {
						t.Fatal(err)
					}
					e.Start()
					defer e.Stop()
					e.IngestAll(tuples)
					if err := e.WaitQuiesce(waitFor); err != nil {
						t.Fatal(err)
					}
					checkSSSP(t, e, tuples)
					if s := e.StatsSnapshot(); maxBatch == 1 && procs > 1 && s.TransportPayloads != s.TransportSent {
						t.Fatalf("MaxBatch=1 shipped %d messages in %d frames; want one per frame", s.TransportPayloads, s.TransportSent)
					}
				})
			}
		}
	}
}

func TestSSSPIncrementalAndRemovals(t *testing.T) {
	base := datasets.PowerLawGraph(100, 3, 3)
	all := datasets.WithRemovals(base, 0.25, 5)
	half := len(all) / 2
	for _, bound := range []int64{1, 1 << 40} {
		t.Run(fmt.Sprintf("B=%d", bound), func(t *testing.T) {
			e := newSSSPEngine(t, 3, bound, storage.NewMemStore(), storage.MainLoop)
			e.Start()
			defer e.Stop()
			e.IngestAll(all[:half])
			if err := e.WaitQuiesce(waitFor); err != nil {
				t.Fatal(err)
			}
			checkSSSP(t, e, all[:half])
			e.IngestAll(all[half:])
			if err := e.WaitQuiesce(waitFor); err != nil {
				t.Fatal(err)
			}
			checkSSSP(t, e, all)
		})
	}
}

func TestEdgeRemovalRaisesDistance(t *testing.T) {
	// 0 -> 1 -> 2 and a long detour 0 -> 3 -> 4 -> 2. Removing 1 -> 2 must
	// raise vertex 2's distance from 2 to 3.
	edges := []stream.Tuple{
		stream.AddEdge(1, 0, 1), stream.AddEdge(2, 1, 2),
		stream.AddEdge(3, 0, 3), stream.AddEdge(4, 3, 4), stream.AddEdge(5, 4, 2),
	}
	e := newSSSPEngine(t, 2, 8, storage.NewMemStore(), storage.MainLoop)
	e.Start()
	defer e.Stop()
	e.IngestAll(edges)
	if err := e.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	st, _, err := e.ReadState(2, math.MaxInt64)
	if err != nil || st.(*ssspState).Length != 2 {
		t.Fatalf("before removal: dist(2) = %v, %v; want 2", st, err)
	}
	e.Ingest(stream.RemoveEdge(6, 1, 2))
	if err := e.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	st, _, err = e.ReadState(2, math.MaxInt64)
	if err != nil || st.(*ssspState).Length != 3 {
		t.Fatalf("after removal: dist(2) = %v, %v; want 3", st, err)
	}
}

func TestSynchronousLoopSendsNoPrepares(t *testing.T) {
	tuples := datasets.PowerLawGraph(80, 3, 11)
	e := newSSSPEngine(t, 4, 1, storage.NewMemStore(), storage.MainLoop)
	e.Start()
	defer e.Stop()
	e.IngestAll(tuples)
	if err := e.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	s := e.StatsSnapshot()
	if s.PrepareMsgs != 0 {
		t.Fatalf("B=1 sent %d PREPARE messages; synchronous execution must send none (Table 2)", s.PrepareMsgs)
	}
	if s.Commits == 0 || s.UpdateMsgs == 0 {
		t.Fatalf("loop did no work: %+v", s)
	}
}

func TestAsynchronousLoopUsesPrepares(t *testing.T) {
	tuples := datasets.PowerLawGraph(80, 3, 11)
	e := newSSSPEngine(t, 4, 1<<40, storage.NewMemStore(), storage.MainLoop)
	e.Start()
	defer e.Stop()
	e.IngestAll(tuples)
	if err := e.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	s := e.StatsSnapshot()
	if s.PrepareMsgs == 0 {
		t.Fatal("unbounded loop sent no PREPARE messages; expected consumer-driven iteration assignment")
	}
}

func TestSyncNeedsFewerIterationsThanAsync(t *testing.T) {
	tuples := datasets.PowerLawGraph(150, 3, 13)
	iters := func(bound int64) int64 {
		e := newSSSPEngine(t, 4, bound, storage.NewMemStore(), storage.MainLoop)
		e.Start()
		defer e.Stop()
		e.IngestAll(tuples)
		if err := e.WaitQuiesce(waitFor); err != nil {
			t.Fatal(err)
		}
		return e.Notified()
	}
	sync := iters(1)
	async := iters(1 << 40)
	if sync >= async {
		t.Fatalf("sync used %d iterations, async %d; the paper's Table 2 shape (sync needs fewest) is violated", sync, async)
	}
}

func TestBranchForkAfterQuiesce(t *testing.T) {
	tuples := datasets.PowerLawGraph(100, 3, 17)
	half := len(tuples) / 2
	store := storage.NewMemStore()
	e := newSSSPEngine(t, 3, 16, store, storage.MainLoop)
	e.Start()
	defer e.Stop()
	e.IngestAll(tuples[:half])
	if err := e.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	br, spec, err := e.ForkBranch(storage.LoopID(1), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer br.Stop()
	if err := br.WaitDone(waitFor); err != nil {
		t.Fatal(err)
	}
	if len(spec.Residual) != 0 {
		t.Fatalf("quiesced fork has %d residual inputs; want 0", len(spec.Residual))
	}
	checkSSSP(t, br, tuples[:half])
	// The main loop keeps working independently afterwards.
	e.IngestAll(tuples[half:])
	if err := e.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	checkSSSP(t, e, tuples)
}

func TestBranchForkWhileRunningIsExact(t *testing.T) {
	// Fork mid-flight: everything ingested before Fork must be reflected in
	// the branch's fixed point (snapshot + seeds + residual replay).
	tuples := datasets.PowerLawGraph(100, 3, 19)
	cut := 2 * len(tuples) / 3
	e := newSSSPEngine(t, 3, 64, storage.NewMemStore(), storage.MainLoop)
	e.Start()
	defer e.Stop()
	e.IngestAll(tuples[:cut])
	// No quiesce: fork immediately while the cascade runs.
	br, _, err := e.ForkBranch(storage.LoopID(2), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer br.Stop()
	if err := br.WaitDone(waitFor); err != nil {
		t.Fatal(err)
	}
	checkSSSP(t, br, tuples[:cut])
	// Ingesting after the fork must not perturb the branch's results.
	e.IngestAll(tuples[cut:])
	if err := e.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	checkSSSP(t, br, tuples[:cut])
	checkSSSP(t, e, tuples)
}

func TestConcurrentBranches(t *testing.T) {
	tuples := datasets.PowerLawGraph(80, 3, 23)
	e := newSSSPEngine(t, 2, 32, storage.NewMemStore(), storage.MainLoop)
	e.Start()
	defer e.Stop()
	e.IngestAll(tuples)
	if err := e.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	var branches []*Engine
	for i := 1; i <= 3; i++ {
		br, _, err := e.ForkBranch(storage.LoopID(i), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		branches = append(branches, br)
	}
	for _, br := range branches {
		if err := br.WaitDone(waitFor); err != nil {
			t.Fatal(err)
		}
		checkSSSP(t, br, tuples)
		br.Stop()
	}
}

func TestMasterPauseStallsSyncLoop(t *testing.T) {
	// A long path graph makes the cascade last many iterations.
	var tuples []stream.Tuple
	for i := 0; i < 400; i++ {
		tuples = append(tuples, stream.AddEdge(stream.Timestamp(i+1), stream.VertexID(i), stream.VertexID(i+1)))
	}
	e := newSSSPEngine(t, 2, 1, storage.NewMemStore(), storage.MainLoop)
	e.Start()
	defer e.Stop()
	e.IngestAll(tuples)
	time.Sleep(20 * time.Millisecond)
	e.PauseMaster()
	// Let the in-flight work settle: wait until the commit counter has been
	// stable for a while (fixed sleeps flake under -race scheduling).
	deadline := time.Now().Add(5 * time.Second)
	before := e.StatsSnapshot().Commits
	stableSince := time.Now()
	for time.Since(stableSince) < 150*time.Millisecond {
		if time.Now().After(deadline) {
			t.Fatal("commits never settled after master pause")
		}
		time.Sleep(5 * time.Millisecond)
		if cur := e.StatsSnapshot().Commits; cur != before {
			before, stableSince = cur, time.Now()
		}
	}
	after := e.StatsSnapshot().Commits
	if after != before {
		t.Fatalf("synchronous loop kept committing (%d -> %d) with the master dead", before, after)
	}
	e.ResumeMaster()
	if err := e.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	checkSSSP(t, e, tuples)
}

func TestMasterPauseDoesNotStallUnboundedLoop(t *testing.T) {
	var tuples []stream.Tuple
	for i := 0; i < 400; i++ {
		tuples = append(tuples, stream.AddEdge(stream.Timestamp(i+1), stream.VertexID(i), stream.VertexID(i+1)))
	}
	e := newSSSPEngine(t, 2, 1<<40, storage.NewMemStore(), storage.MainLoop)
	e.Start()
	defer e.Stop()
	e.PauseMaster() // dead from the start: termination detection never runs
	e.IngestAll(tuples)
	deadline := time.Now().Add(waitFor)
	// The full cascade must complete purely on consumer-driven iteration
	// numbers: one commit per path vertex at least.
	for e.StatsSnapshot().Commits < 401 {
		if time.Now().After(deadline) {
			t.Fatalf("unbounded loop stalled with dead master after %d commits", e.StatsSnapshot().Commits)
		}
		time.Sleep(time.Millisecond)
	}
	e.ResumeMaster()
	if err := e.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	checkSSSP(t, e, tuples)
}

func TestProcessorPauseStallsAndResumes(t *testing.T) {
	tuples := datasets.PowerLawGraph(100, 3, 29)
	e := newSSSPEngine(t, 4, 16, storage.NewMemStore(), storage.MainLoop)
	e.Start()
	defer e.Stop()
	e.PauseProcessor(2)
	e.IngestAll(tuples)
	if err := e.WaitQuiesce(300 * time.Millisecond); err == nil {
		t.Fatal("loop quiesced with a dead processor owning a quarter of the vertices")
	}
	e.ResumeProcessor(2)
	if err := e.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	checkSSSP(t, e, tuples)
}

func TestRecoveryFromCheckpoint(t *testing.T) {
	tuples := datasets.PowerLawGraph(100, 3, 31)
	half := len(tuples) / 2
	store := storage.NewMemStore()
	e := newSSSPEngine(t, 3, 8, store, storage.MainLoop)
	e.Start()
	e.IngestAll(tuples[:half])
	if err := e.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	e.Stop() // simulated crash after the checkpoint
	ckpt, err := store.LastCheckpoint(storage.MainLoop)
	if err != nil {
		t.Fatal(err)
	}

	r, err := New(Config{
		Processors: 3,
		DelayBound: 8,
		Kind:       MainLoop,
		LoopID:     storage.LoopID(9),
		Store:      store,
		Program:    ssspProg{source: 0},
		Snapshot:   &SnapshotSource{Loop: storage.MainLoop, UpTo: ckpt},
		Seed:       42,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	defer r.Stop()
	release := r.HoldQuiesce()
	if err := r.ActivateStored(); err != nil {
		t.Fatal(err)
	}
	release()
	if err := r.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	checkSSSP(t, r, tuples[:half])
	// The recovered loop continues with the rest of the stream.
	r.IngestAll(tuples[half:])
	if err := r.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	checkSSSP(t, r, tuples)
}

func TestAtLeastOnceTransportStillConverges(t *testing.T) {
	tuples := datasets.PowerLawGraph(60, 3, 37)
	e, err := New(Config{
		Processors:  3,
		DelayBound:  16,
		Kind:        MainLoop,
		LoopID:      storage.MainLoop,
		Store:       storage.NewMemStore(),
		Program:     ssspProg{source: 0},
		ResendAfter: 5 * time.Millisecond,
		Seed:        42,
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
	checkSSSP(t, e, tuples)
}

func TestMaxIterationsHaltsLoop(t *testing.T) {
	// A two-vertex cycle with a program that always re-emits runs forever;
	// MaxIterations must stop it.
	e, err := New(Config{
		Processors:    1,
		DelayBound:    4,
		Kind:          MainLoop,
		LoopID:        storage.MainLoop,
		Store:         storage.NewMemStore(),
		Program:       chatterProg{},
		MaxIterations: 50,
		Seed:          1,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	defer e.Stop()
	e.Ingest(stream.AddEdge(1, 0, 1))
	e.Ingest(stream.AddEdge(2, 1, 0))
	if err := e.WaitDone(waitFor); err != nil {
		t.Fatal(err)
	}
}

func TestConvergePredicateHaltsLoop(t *testing.T) {
	stopAt := int64(20)
	e, err := New(Config{
		Processors: 2,
		DelayBound: 4,
		Kind:       MainLoop,
		LoopID:     storage.MainLoop,
		Store:      storage.NewMemStore(),
		Program:    chatterProg{},
		Converge:   func(iter, _ int64, _ float64) bool { return iter >= stopAt },
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	defer e.Stop()
	e.Ingest(stream.AddEdge(1, 0, 1))
	e.Ingest(stream.AddEdge(2, 1, 0))
	if err := e.WaitDone(waitFor); err != nil {
		t.Fatal(err)
	}
	log := e.IterationLog()
	if len(log) == 0 {
		t.Fatal("no iteration records")
	}
}

// chatterProg re-emits forever: used to exercise halting.
type chatterProg struct{}

type chatterState struct{ N int64 }

func init() { RegisterStateType(&chatterState{}) }

func (chatterProg) Init(ctx Context) { ctx.SetState(&chatterState{}) }

func (chatterProg) OnInput(Context, stream.Tuple) {}

func (chatterProg) Gather(ctx Context, _ stream.VertexID, _ int64, _ any) {
	ctx.State().(*chatterState).N++
}

func (chatterProg) Scatter(ctx Context) {
	st := ctx.State().(*chatterState)
	for _, t := range ctx.Targets() {
		ctx.Emit(t, st.N)
	}
}

func TestIterationLogMonotone(t *testing.T) {
	tuples := datasets.PowerLawGraph(60, 3, 41)
	e := newSSSPEngine(t, 2, 4, storage.NewMemStore(), storage.MainLoop)
	e.Start()
	defer e.Stop()
	e.IngestAll(tuples)
	if err := e.WaitSettled(waitFor); err != nil {
		t.Fatal(err)
	}
	// The tracker settles before the master finishes appending the final
	// records; wait for the log to catch up with the frontier.
	deadline := time.Now().Add(waitFor)
	var log []IterationRecord
	for {
		log = e.IterationLog()
		if len(log) > 0 && log[len(log)-1].Iteration == e.Notified() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("iteration log never caught up: %d records, notified %d", len(log), e.Notified())
		}
		time.Sleep(time.Millisecond)
	}
	var commits int64
	for i := 1; i < len(log); i++ {
		if log[i].Iteration != log[i-1].Iteration+1 {
			t.Fatalf("iteration records not contiguous: %d then %d", log[i-1].Iteration, log[i].Iteration)
		}
		if log[i].At < log[i-1].At {
			t.Fatal("iteration termination times not monotone")
		}
	}
	for _, r := range log {
		commits += r.Commits
	}
	if got := e.StatsSnapshot().Commits; commits != got {
		t.Fatalf("sum of per-iteration commits %d != total commits %d", commits, got)
	}
}

func TestConfigValidation(t *testing.T) {
	store := storage.NewMemStore()
	cases := []Config{
		{Processors: 0, DelayBound: 1, Store: store, Program: ssspProg{}},
		{Processors: 1, DelayBound: 0, Store: store, Program: ssspProg{}},
		{Processors: 1, DelayBound: 1, Program: ssspProg{}},
		{Processors: 1, DelayBound: 1, Store: store},
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d should have been rejected", i)
		}
	}
}

func TestTrackerAdvanceAndQuiesce(t *testing.T) {
	tr := NewTracker(0)
	if !tr.Quiesced() {
		t.Fatal("fresh tracker should be quiescent")
	}
	a := tr.AcquireFloor(0)
	b := tr.AcquireFloor(5)
	if a != 0 || b != 5 {
		t.Fatalf("placements = %d, %d; want 0, 5", a, b)
	}
	tr.Release(0)
	from, to, quiesced, ok := tr.Advance()
	if !ok || from != 0 || to != 4 || quiesced {
		t.Fatalf("Advance = (%d, %d, %v, %v); want (0, 4, false, true)", from, to, quiesced, ok)
	}
	if tr.Notified() != 4 {
		t.Fatalf("Notified = %d; want 4", tr.Notified())
	}
	// Floor now prevents placements below 5.
	if got := tr.AcquireFloor(2); got != 5 {
		t.Fatalf("AcquireFloor(2) after notify 4 = %d; want 5", got)
	}
	tr.Release(5)
	tr.Release(5)
	from, to, quiesced, ok = tr.Advance()
	if !ok || !quiesced || to != 5 || from != 5 {
		t.Fatalf("Advance = (%d, %d, %v, %v); want (5, 5, true, true)", from, to, quiesced, ok)
	}
}

func TestTrackerReleaseWithoutAcquirePanics(t *testing.T) {
	tr := NewTracker(0)
	defer func() {
		if recover() == nil {
			t.Fatal("Release without Acquire should panic")
		}
	}()
	tr.Release(3)
}

func TestTrackerCommitStats(t *testing.T) {
	tr := NewTracker(0)
	tr.AcquireFloor(2)
	tr.RecordCommit(2, 1.5)
	tr.RecordCommit(2, 2.5)
	c, p := tr.IterStats(2)
	if c != 2 || p != 4.0 {
		t.Fatalf("IterStats = (%d, %v); want (2, 4.0)", c, p)
	}
	tr.DropStatsThrough(2)
	if c, _ := tr.IterStats(2); c != 0 {
		t.Fatal("DropStatsThrough did not drop")
	}
	tr.Release(2)
}

func TestTrackerCloseUnblocksAdvance(t *testing.T) {
	tr := NewTracker(0)
	tr.AcquireFloor(0)
	// Consume the initial quiesce report is not applicable (token held);
	// Advance would block forever without Close.
	done := make(chan bool)
	go func() {
		_, _, _, ok := tr.Advance()
		done <- ok
	}()
	time.Sleep(5 * time.Millisecond)
	tr.Close()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("Advance after Close returned ok")
		}
	case <-time.After(time.Second):
		t.Fatal("Advance did not unblock on Close")
	}
}

func TestJournalLifecycle(t *testing.T) {
	j := newInputJournal()
	t1 := stream.AddEdge(1, 1, 2)
	t2 := stream.AddEdge(2, 3, 4)
	t3 := stream.AddEdge(3, 5, 6)
	s1 := j.Ingested(t1)
	s2 := j.Ingested(t2)
	j.Ingested(t3) // stays in flight

	_ = s2                        // applied by its vertex, which has not committed
	j.Committed([]uint64{s1}, 10) // t1's vertex commits: reflected at iteration 10

	// Fork at 5: t1 committed later than 5, t2 applied-uncommitted, t3 in
	// flight -> all three are residual, in ingest order.
	res := j.Residual(5)
	if len(res) != 3 || res[0] != t1 || res[1] != t2 || res[2] != t3 {
		t.Fatalf("Residual(5) = %+v", res)
	}
	// Fork at 10: t1 is reflected.
	res = j.Residual(10)
	if len(res) != 2 || res[0] != t2 || res[1] != t3 {
		t.Fatalf("Residual(10) = %+v", res)
	}
	j.Prune(10)
	res = j.Residual(10)
	if len(res) != 2 {
		t.Fatalf("after Prune Residual(10) = %+v", res)
	}
	un, com := j.Size()
	if un != 2 || com != 0 {
		t.Fatalf("Size = (%d, %d); want (2, 0)", un, com)
	}
}

func TestReadStateNotFound(t *testing.T) {
	e := newSSSPEngine(t, 1, 1, storage.NewMemStore(), storage.MainLoop)
	e.Start()
	defer e.Stop()
	if _, _, err := e.ReadState(99, math.MaxInt64); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("ReadState of unknown vertex: %v; want ErrNotFound", err)
	}
}

func TestDiskBackedEngine(t *testing.T) {
	dir := t.TempDir()
	store, err := storage.OpenDisk(dir + "/log")
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	tuples := datasets.PowerLawGraph(60, 3, 43)
	e := newSSSPEngine(t, 2, 8, store, storage.MainLoop)
	e.Start()
	defer e.Stop()
	e.IngestAll(tuples)
	if err := e.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	checkSSSP(t, e, tuples)
	if _, err := store.LastCheckpoint(storage.MainLoop); err != nil {
		t.Fatalf("disk engine produced no checkpoint: %v", err)
	}
}
