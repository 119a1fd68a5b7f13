package tornado

import (
	"net/http"
	"net/http/httptest"
	"strings"
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
	store := storage.NewMVCCStore()
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
	// WaitQuiesce returns on the master's published record, which comes after
	// the iteration's record is logged.
	if log := sys.IterationLog(); len(log) == 0 || log[len(log)-1].Iteration != s.Notified {
		t.Fatalf("IterationLog ends at %v; want the record of Notified %d", log[max(len(log)-1, 0):], s.Notified)
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

// TestSystemReshardContinuity: Reshard is a plan transition on the main
// loop's own checkpoint restart, so the System keeps its engine — counters,
// recovery log and metric series carry on, and the plan epoch rises by one —
// and /metrics and /statusz stay scrapeable while the slot count grows.
func TestSystemReshardContinuity(t *testing.T) {
	tuples := datasets.PowerLawGraph(100, 3, 29)
	half := len(tuples) / 2
	sys := newSSSP(t, Options{Processors: 2, DelayBound: 16})
	sys.IngestAll(tuples[:half])
	if err := sys.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	eng, commits := sys.Engine(), sys.Stats().Commits
	h := sys.Obs().Handler()
	scrape := func(path string) string {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Errorf("GET %s: %d", path, rec.Code)
		}
		return rec.Body.String()
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				scrape("/metrics")
				scrape("/statusz")
			}
		}
	}()
	err := sys.Reshard(5, waitFor)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}

	if sys.Engine() != eng {
		t.Fatal("Reshard replaced the main-loop engine")
	}
	if got := sys.Stats().Commits; got < commits {
		t.Fatalf("Stats().Commits went from %d to %d across Reshard", commits, got)
	}
	body := scrape("/metrics")
	if got, _ := metricValue(t, body, "tornado_commits_total"); got < float64(commits) {
		t.Fatalf("tornado_commits_total = %v after Reshard; was %d before", got, commits)
	}
	if got, _ := metricValue(t, body, "tornado_elastic_plan_epoch"); got != 1 {
		t.Fatalf("tornado_elastic_plan_epoch = %v after one Reshard; want 1", got)
	}
	if !strings.Contains(body, `tornado_partition_frontier_lag_iterations{kind="main",loop="0",proc="4",`) {
		t.Fatal("no frontier-lag gauge for slot 4 after growing to 5 slots")
	}
	var reshards []RecoveryEvent
	for _, ev := range sys.RecoveryLog() {
		if ev.Kind == engine.EventReshard {
			reshards = append(reshards, ev)
		}
	}
	if len(reshards) != 1 || !strings.Contains(reshards[0].Detail, "epoch 1") {
		t.Fatalf("recovery log's reshard events: %+v; want one at epoch 1", reshards)
	}

	sys.IngestAll(tuples[half:])
	if err := sys.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	want := algorithms.RefSSSP(tuples, 0, 64)
	if err := sys.ScanApprox(func(id VertexID, state any) error {
		if got := state.(*algorithms.SSSPState).Length; got != want[id] {
			t.Fatalf("vertex %d: %d vs %d after reshard", id, got, want[id])
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
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
}

// TestDeltaChurnCommitBudget holds the main loop's work per burst on
// pagerank_delta_churn's shape: delta PageRank on PowerLawGraph(500,4,1)
// absorbs ten 64-tuple churn bursts, each to quiescence. A vertex that
// commits once for every delta that trickles in spends ≈ 5 900 commits a
// burst; one that waits for the frontier and folds a round's deltas into
// one commit spends ≈ 2 200.
func TestDeltaChurnCommitBudget(t *testing.T) {
	const bursts, budget = 10, 3500
	base := datasets.PowerLawGraph(500, 4, 1)
	sys, err := NewDelta(algorithms.DeltaPageRank{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	sys.IngestAll(base)
	if err := sys.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	churn := newEdgeChurn(base)
	burst := make([]stream.Tuple, 64)
	start := sys.Stats()
	for i := 0; i < bursts; i++ {
		churn.fill(burst)
		sys.IngestAll(burst)
		if err := sys.WaitQuiesce(waitFor); err != nil {
			t.Fatal(err)
		}
	}
	end := sys.Stats()
	mean := float64(end.Commits-start.Commits) / bursts
	t.Logf("%.0f commits and %.1f iterations per burst", mean, float64(end.Notified-start.Notified)/bursts)
	if mean > budget {
		t.Fatalf("main loop spent %.0f commits per 64-tuple burst; budget %d", mean, budget)
	}
}
