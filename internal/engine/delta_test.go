package engine

import (
	"math"
	"testing"
	"time"

	"tornado/internal/datasets"
	"tornado/internal/delta"
	"tornado/internal/storage"
	"tornado/internal/stream"
)

// dssspState / dssspProg: a delta-accumulative SSSP for engine-internal
// tests (which cannot import internal/algorithms), mirroring
// algorithms.DeltaSSSP: per-producer cumulative lengths, locally synthesized
// newest-wins pendings, full recomputation at Update.
type dssspState struct {
	Length  int64
	Sent    int64
	SrcLens map[stream.VertexID]int64
	Seq     uint64
}

type dssspDelta struct {
	Seq uint64
	Len int64
}

type dssspProg struct {
	source stream.VertexID
}

func init() {
	RegisterStateType(&dssspState{})
	RegisterStateType(dssspDelta{})
	RegisterStateType(&dsumState{})
}

func (dssspProg) Identity() any { return dssspDelta{} }

func (dssspProg) Accumulate(a, b any) any {
	x, y := a.(dssspDelta), b.(dssspDelta)
	if x.Seq > y.Seq || (x.Seq == y.Seq && x.Len < y.Len) {
		return x
	}
	return y
}

func (dssspProg) Priority(ctx delta.Context, pending any) float64 {
	st := ctx.State().(*dssspState)
	return math.Abs(float64(pending.(dssspDelta).Len - st.Length))
}

func (dssspProg) Threshold() float64 { return 0.5 }

func (p dssspProg) Init(ctx delta.Context) {
	l := inf
	if ctx.ID() == p.source {
		l = 0
	}
	ctx.SetState(&dssspState{Length: l, Sent: inf, SrcLens: make(map[stream.VertexID]int64)})
}

func (dssspProg) OnInput(delta.Context, stream.Tuple) {}

func (p dssspProg) recompute(ctx delta.Context, st *dssspState) int64 {
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
	return l
}

func (p dssspProg) Gather(ctx delta.Context, src stream.VertexID, value any, _ bool) (any, bool) {
	st := ctx.State().(*dssspState)
	st.SrcLens[src] = value.(int64)
	l := p.recompute(ctx, st)
	if l == st.Length {
		return nil, false
	}
	st.Seq++
	return dssspDelta{Seq: st.Seq, Len: l}, true
}

func (p dssspProg) Update(ctx delta.Context, _ any) {
	st := ctx.State().(*dssspState)
	l := p.recompute(ctx, st)
	if l != st.Length {
		ctx.ReportProgress(1)
	}
	st.Length = l
	for _, t := range ctx.RemovedTargets() {
		ctx.EmitCum(t, inf)
	}
	if l != st.Sent || ctx.Activated() {
		st.Sent = l
		for _, t := range ctx.Targets() {
			ctx.EmitCum(t, l)
		}
		return
	}
	if l < inf {
		for _, t := range ctx.AddedTargets() {
			ctx.EmitCum(t, l)
		}
	}
}

// checkDSSSP asserts a delta-mode loop sits at the exact reference fixed
// point (the delta twin of checkSSSP).
func checkDSSSP(t *testing.T, e *Engine, tuples []stream.Tuple) {
	t.Helper()
	want := refSSSP(tuples, 0)
	got := make(map[stream.VertexID]int64)
	err := e.ScanStates(math.MaxInt64, func(id stream.VertexID, _ int64, state any) error {
		got[id] = state.(*dssspState).Length
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for v, w := range want {
		g, ok := got[v]
		if !ok {
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

// TestDeltaChaosSoakRecovery is the delta-mode twin of TestChaosSoakRecovery:
// the same crash schedule (a planned processor crash, a direct one, then the
// master) over a lossy, duplicating transport, with the pending-delta table
// riding in every checkpoint. Convergence to the exact reference fixed point
// proves checkpointed (state, pending) pairs survive incarnation restarts
// with no delta lost or double-applied. Skipped with -short.
func TestDeltaChaosSoakRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped in -short mode")
	}
	tuples := datasets.WithRemovals(datasets.PowerLawGraph(600, 3, 77), 0.1, 7)
	e, err := New(Config{
		Processors:        5,
		DelayBound:        16,
		Kind:              MainLoop,
		LoopID:            storage.MainLoop,
		Store:             storage.NewMemStore(),
		Delta:             dssspProg{source: 0},
		ResendAfter:       5 * time.Millisecond,
		Seed:              77,
		HeartbeatInterval: heartbeatFor(nil),
		SuspectAfter:      suspectAfterFor(nil),
		RestartBackoff:    time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.InjectTransportFaults(0.02, 0.02)
	e.InjectFaultPlan(FaultPlan{Faults: []Fault{
		{Kind: FaultCrashProcessor, Proc: 1, AtIteration: 1},
	}})
	e.Start()
	defer e.Stop()

	waves := 4
	per := len(tuples) / waves
	for w := 0; w < waves; w++ {
		lo, hi := w*per, (w+1)*per
		if w == waves-1 {
			hi = len(tuples)
		}
		e.IngestAll(tuples[lo:hi])
		switch w {
		case 1:
			waitUntil(t, soakWait(nil), func() bool { return e.StatsSnapshot().Recoveries >= 1 },
				"planned crash of processor 1 never recovered")
			e.CrashProcessor(3)
		case 2:
			waitUntil(t, soakWait(nil), func() bool { return e.StatsSnapshot().Recoveries >= 2 },
				"crash of processor 3 never recovered")
			e.CrashMaster()
		}
	}
	if err := e.WaitSettled(soakWait(nil)); err != nil {
		s := e.StatsSnapshot()
		t.Fatalf("%v (gen=%d crashes=%d recoveries=%d frontier=%d notified=%d log tail: %+v)",
			err, s.Generation, s.Crashes, s.Recoveries, s.Frontier, s.Notified, tail(e.RecoveryLog(), 6))
	}
	checkDSSSP(t, e, tuples)
	s := e.StatsSnapshot()
	if s.Crashes < 3 || s.Recoveries < 3 {
		t.Fatalf("Crashes = %d, Recoveries = %d, want >= 3 each (log: %+v)",
			s.Crashes, s.Recoveries, e.RecoveryLog())
	}
	if s.DeltaQueueDepth != 0 {
		t.Fatalf("DeltaQueueDepth = %d after settling, want 0", s.DeltaQueueDepth)
	}
	checkQuiescent(t, e)
}

// TestDeltaBranchForkAndAdopt forks a branch off a delta-mode main loop
// (branch seeding activates every vertex, which must consume any restored
// pending), checks it against the reference, merges it back (handleAdopt
// must invalidate stale in-memory pendings), and keeps streaming.
func TestDeltaBranchForkAndAdopt(t *testing.T) {
	tuples := datasets.WithRemovals(datasets.PowerLawGraph(200, 3, 31), 0.15, 9)
	e, err := New(Config{
		Processors: 4,
		DelayBound: 16,
		Kind:       MainLoop,
		LoopID:     storage.MainLoop,
		Store:      storage.NewMemStore(),
		Delta:      dssspProg{source: 0},
		Seed:       31,
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
	br, _, err := e.ForkBranch(storage.LoopID(100), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := br.WaitDone(waitFor); err != nil {
		t.Fatal(err)
	}
	checkDSSSP(t, br, tuples[:half])
	if err := e.AdoptBranch(br); err != nil {
		t.Fatal(err)
	}
	br.Stop()
	checkDSSSP(t, e, tuples[:half])
	e.IngestAll(tuples[half:])
	if err := e.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	checkDSSSP(t, e, tuples)
	checkQuiescent(t, e)
}

// dsumState / dsumProg is the minimal additive delta program used by the
// coalescing probe: pendings are float64 increments summed by Accumulate.
type dsumState struct {
	Total float64
}

type dsumProg struct{}

func (dsumProg) Identity() any                       { return 0.0 }
func (dsumProg) Accumulate(a, b any) any             { return a.(float64) + b.(float64) }
func (dsumProg) Threshold() float64                  { return 0.5 }
func (dsumProg) Init(ctx delta.Context)              { ctx.SetState(&dsumState{}) }
func (dsumProg) OnInput(delta.Context, stream.Tuple) {}
func (dsumProg) Priority(_ delta.Context, pending any) float64 {
	return math.Abs(pending.(float64))
}
func (dsumProg) Gather(_ delta.Context, _ stream.VertexID, value any, _ bool) (any, bool) {
	return value, true
}
func (dsumProg) Update(ctx delta.Context, pending any) {
	ctx.State().(*dsumState).Total += pending.(float64)
}

// TestDeltaCoalesceAccumulates drives the out-queue directly in delta mode:
// in-flight same-pair deltas must merge through the program's accumulator
// (not last-writer), a newer cumulative value must supersede outright, and a
// delta folding into a pending cumulative value must keep the cum flag.
func TestDeltaCoalesceAccumulates(t *testing.T) {
	e, err := New(Config{
		Processors: 1,
		DelayBound: 8,
		Kind:       MainLoop,
		LoopID:     storage.MainLoop,
		Store:      storage.NewMemStore(),
		Delta:      dsumProg{},
		Seed:       7,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Stop)
	p := e.proc(0)

	// Two plain deltas accumulate: 5 + 3 = 8.
	tok1 := p.tk.AcquireFloor(1)
	sendUpd(p, msgUpdate{From: 1, To: 2, Iteration: 1, Token: tok1, Value: 5.0, HasValue: true})
	tok2 := p.tk.AcquireFloor(2)
	sendUpd(p, msgUpdate{From: 1, To: 2, Iteration: 2, Token: tok2, Value: 3.0, HasValue: true})
	if q := queued(p, 0); len(q) != 1 {
		t.Fatalf("window has %d entries after same-pair deltas; want 1", len(q))
	}
	m := queued(p, 0)[0].(msgUpdate)
	if m.Iteration != 2 || !m.HasValue || m.Cum || m.Value.(float64) != 8.0 {
		t.Fatalf("merged delta = %+v; want iteration 2, accumulated value 8, cum=false", m)
	}
	if n := p.tk.TokenCount(); n != 1 {
		t.Fatalf("TokenCount = %d after coalescing; want 1 (superseded token released)", n)
	}

	// A newer cumulative value supersedes the accumulated deltas outright.
	tok3 := p.tk.AcquireFloor(3)
	sendUpd(p, msgUpdate{From: 1, To: 2, Iteration: 3, Token: tok3, Value: 7.0, HasValue: true, Cum: true})
	m = queued(p, 0)[0].(msgUpdate)
	if n := len(queued(p, 0)); n != 1 || m.Iteration != 3 || !m.Cum || m.Value.(float64) != 7.0 {
		t.Fatalf("cum supersede = %+v (window len %d); want iteration 3, value 7, cum=true", m, n)
	}

	// A plain delta folds INTO the pending cumulative value, keeping cum.
	tok4 := p.tk.AcquireFloor(4)
	sendUpd(p, msgUpdate{From: 1, To: 2, Iteration: 4, Token: tok4, Value: 2.0, HasValue: true})
	m = queued(p, 0)[0].(msgUpdate)
	if n := len(queued(p, 0)); n != 1 || m.Iteration != 4 || !m.Cum || m.Value.(float64) != 9.0 {
		t.Fatalf("delta-into-cum = %+v (window len %d); want iteration 4, value 9, cum=true", m, n)
	}
	if c := e.stats.Coalesced.Value(); c != 3 {
		t.Fatalf("Coalesced = %d; want 3", c)
	}
}
