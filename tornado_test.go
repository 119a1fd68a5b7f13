package tornado

import (
	"sync"
	"testing"
	"time"

	"tornado/internal/algorithms"
	"tornado/internal/datasets"
	"tornado/internal/engine"
	"tornado/internal/storage"
	"tornado/internal/stream"
)

const waitFor = 30 * time.Second

func newSSSP(t *testing.T, opts Options) *System {
	t.Helper()
	sys, err := New(algorithms.SSSP{Source: 0}, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	return sys
}

func TestQuickstartFlow(t *testing.T) {
	sys := newSSSP(t, Options{})
	sys.IngestAll([]Tuple{
		stream.AddEdge(1, 0, 1),
		stream.AddEdge(2, 1, 2),
		stream.AddEdge(3, 2, 3),
	})
	res, err := sys.Query(waitFor)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	st, _, err := res.Read(3)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.(*algorithms.SSSPState).Length; got != 3 {
		t.Fatalf("dist(3) = %d; want 3", got)
	}
	if res.Latency <= 0 {
		t.Fatal("query latency not recorded")
	}
}

func TestQueryMatchesReference(t *testing.T) {
	tuples := datasets.PowerLawGraph(150, 3, 7)
	sys := newSSSP(t, Options{Processors: 3, DelayBound: 32})
	sys.IngestAll(tuples)
	res, err := sys.Query(waitFor)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	want := algorithms.RefSSSP(tuples, 0, 64)
	err = res.Scan(func(id VertexID, state any) error {
		if got := state.(*algorithms.SSSPState).Length; got != want[id] {
			t.Fatalf("vertex %d: %d vs %d", id, got, want[id])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentQueriesWhileIngesting(t *testing.T) {
	tuples := datasets.PowerLawGraph(150, 3, 9)
	cut := len(tuples) / 2
	sys := newSSSP(t, Options{Processors: 4, DelayBound: 64})
	sys.IngestAll(tuples[:cut])

	var wg sync.WaitGroup
	errs := make(chan error, 3)
	for q := 0; q < 3; q++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := sys.Query(waitFor)
			if err != nil {
				errs <- err
				return
			}
			res.Close()
		}()
	}
	sys.IngestAll(tuples[cut:])
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := sys.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	// The main loop's approximation reflects the full input afterwards.
	want := algorithms.RefSSSP(tuples, 0, 64)
	err := sys.ScanApprox(func(id VertexID, state any) error {
		if got := state.(*algorithms.SSSPState).Length; got != want[id] {
			t.Fatalf("vertex %d: approx %d vs %d", id, got, want[id])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestQueryWithOverrideDelayBound(t *testing.T) {
	tuples := datasets.PowerLawGraph(100, 3, 11)
	sys := newSSSP(t, Options{Processors: 2, DelayBound: 64})
	sys.IngestAll(tuples)
	if err := sys.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	res, err := sys.QueryWith(waitFor, func(cfg *engine.Config) { cfg.DelayBound = 1 }, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	if got := res.Stats().PrepareMsgs; got != 0 {
		t.Fatalf("synchronous branch sent %d prepares; want 0", got)
	}
}

func TestReadApprox(t *testing.T) {
	sys := newSSSP(t, Options{})
	sys.Ingest(stream.AddEdge(1, 0, 5))
	if err := sys.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	st, err := sys.ReadApprox(5)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.(*algorithms.SSSPState).Length; got != 1 {
		t.Fatalf("approx dist(5) = %d; want 1", got)
	}
}

func TestResultCloseDropsLoop(t *testing.T) {
	store := storage.NewMemStore()
	// Disable the result cache so Close releases the last reference.
	sys := newSSSP(t, Options{Store: store, Query: QueryOptions{DisableCache: true}})
	sys.Ingest(stream.AddEdge(1, 0, 1))
	res, err := sys.Query(waitFor)
	if err != nil {
		t.Fatal(err)
	}
	loop := res.Engine().Config().LoopID
	res.Close()
	res.Close() // idempotent: a second Close must not double-release
	if n := store.NumVersions(loop); n != 0 {
		t.Fatalf("branch loop %d still has %d versions after Close", loop, n)
	}
}

func TestStatsAndIterationLog(t *testing.T) {
	sys := newSSSP(t, Options{})
	sys.IngestAll(datasets.PowerLawGraph(60, 3, 13))
	if err := sys.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	s := sys.Stats()
	if s.Commits == 0 || s.UpdateMsgs == 0 || s.InputMsgs == 0 {
		t.Fatalf("stats look dead: %+v", s)
	}
	// Quiescence is the tracker draining; the master appends the iteration's
	// record after it advances the frontier, so wait for the record itself.
	for deadline := time.Now().Add(waitFor); len(sys.IterationLog()) == 0; {
		if time.Now().After(deadline) {
			t.Fatal("no iteration records")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSystemReshard(t *testing.T) {
	tuples := datasets.PowerLawGraph(100, 3, 27)
	half := len(tuples) / 2
	sys := newSSSP(t, Options{Processors: 2, DelayBound: 16})
	sys.IngestAll(tuples[:half])
	if err := sys.Reshard(5, waitFor); err != nil {
		t.Fatal(err)
	}
	sys.IngestAll(tuples[half:])
	if err := sys.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	want := algorithms.RefSSSP(tuples, 0, 64)
	err := sys.ScanApprox(func(id VertexID, state any) error {
		if got := state.(*algorithms.SSSPState).Length; got != want[id] {
			t.Fatalf("vertex %d: %d vs %d after reshard", id, got, want[id])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Queries still work on the resharded system.
	res, err := sys.Query(waitFor)
	if err != nil {
		t.Fatal(err)
	}
	res.Close()
}

func TestMergeQueryResultBack(t *testing.T) {
	tuples := datasets.PowerLawGraph(80, 3, 15)
	sys := newSSSP(t, Options{Processors: 2, DelayBound: 16})
	sys.IngestAll(tuples)
	if err := sys.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	res, err := sys.Query(waitFor)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	if err := sys.Merge(res); err != nil {
		t.Fatal(err)
	}
	// The main loop's approximation equals the merged fixed point.
	want := algorithms.RefSSSP(tuples, 0, 64)
	err = sys.ScanApprox(func(id VertexID, state any) error {
		if got := state.(*algorithms.SSSPState).Length; got != want[id] {
			t.Fatalf("vertex %d: %d vs %d after merge", id, got, want[id])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNewRejectsNilProgram(t *testing.T) {
	if _, err := New(nil, Options{}); err == nil {
		t.Fatal("nil program accepted")
	}
}

func TestQueryTimeoutCleansUp(t *testing.T) {
	// chatter keeps a branch from converging; the query must time out and
	// clean up rather than leak.
	sys, err := New(chatter{}, Options{Processors: 1, DelayBound: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	sys.Ingest(stream.AddEdge(1, 0, 1))
	sys.Ingest(stream.AddEdge(2, 1, 0))
	time.Sleep(20 * time.Millisecond)
	if _, err := sys.Query(50 * time.Millisecond); err == nil {
		t.Fatal("query against a non-converging program should time out")
	}
}

// chatter never quiesces.
type chatter struct{}

type chatterState struct{ N int64 }

func init() { RegisterStateType(&chatterState{}) }

func (chatter) Init(ctx Context)       { ctx.SetState(&chatterState{}) }
func (chatter) OnInput(Context, Tuple) {}
func (chatter) Gather(ctx Context, _ VertexID, _ int64, _ any) {
	ctx.State().(*chatterState).N++
}
func (chatter) Scatter(ctx Context) {
	st := ctx.State().(*chatterState)
	for _, t := range ctx.Targets() {
		ctx.Emit(t, st.N)
	}
}

// TestNewDeltaQueryAndMerge drives the system-level delta mode end to end:
// delta main loop, branch-loop query, merge back, continued streaming — and
// requires the exact value-mode answer throughout.
func TestNewDeltaQueryAndMerge(t *testing.T) {
	tuples := datasets.WithRemovals(datasets.PowerLawGraph(150, 3, 19), 0.15, 6)
	sys, err := NewDelta(algorithms.DeltaSSSP{Source: 0}, Options{Processors: 3, DelayBound: 16})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	half := len(tuples) / 2
	sys.IngestAll(tuples[:half])
	res, err := sys.Query(waitFor)
	if err != nil {
		t.Fatal(err)
	}
	halfWant := algorithms.RefSSSP(tuples[:half], 0, 64)
	err = res.Scan(func(id VertexID, state any) error {
		if got := state.(*algorithms.DeltaSSSPState).Length; got != halfWant[id] {
			t.Fatalf("branch vertex %d: %d vs %d", id, got, halfWant[id])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	if err := sys.Merge(res); err != nil {
		t.Fatal(err)
	}
	res.Close()
	sys.IngestAll(tuples[half:])
	if err := sys.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	want := algorithms.RefSSSP(tuples, 0, 64)
	err = sys.ScanApprox(func(id VertexID, state any) error {
		if got := state.(*algorithms.DeltaSSSPState).Length; got != want[id] {
			t.Fatalf("vertex %d after merge+stream: %d vs %d", id, got, want[id])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.SetDeltaBoost(8); got != 8 {
		t.Fatalf("SetDeltaBoost(8) = %v", got)
	}
	if got := sys.SetDeltaBoost(1); got != 1 || sys.DeltaBoost() != 1 {
		t.Fatalf("boost did not return to rest: %v / %v", got, sys.DeltaBoost())
	}
}
