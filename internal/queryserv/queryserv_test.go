package queryserv

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tornado/internal/algorithms"
	"tornado/internal/datasets"
	"tornado/internal/engine"
	"tornado/internal/storage"
	"tornado/internal/stream"
)

const waitFor = 30 * time.Second

// harness is a real main-loop engine plus the Backend a System would wire in.
type harness struct {
	t     *testing.T
	e     *engine.Engine
	store *storage.MVCCStore
	next  atomic.Uint64
	live  atomic.Int64 // branch loops forked minus dropped
}

func newHarness(t *testing.T, prog engine.Program, procs int, bound int64) *harness {
	t.Helper()
	store := storage.NewMVCCStore()
	e, err := engine.New(engine.Config{
		Processors: procs,
		DelayBound: bound,
		Kind:       engine.MainLoop,
		LoopID:     storage.MainLoop,
		Store:      store,
		Program:    prog,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	t.Cleanup(e.Stop)
	return &harness{t: t, e: e, store: store}
}

func (h *harness) backend() Backend {
	return Backend{
		Fork: func(override func(*engine.Config), seed func(*engine.Engine)) (*engine.Engine, engine.ForkSpec, storage.LoopID, error) {
			loop := storage.LoopID(h.next.Add(1))
			br, spec, err := h.e.ForkBranch(loop, override, seed)
			if err != nil {
				return nil, engine.ForkSpec{}, 0, err
			}
			h.live.Add(1)
			return br, spec, loop, nil
		},
		Drop: func(loop storage.LoopID) {
			_ = h.store.DropLoop(loop)
			h.live.Add(-1)
		},
		JournalSeq: h.e.JournalSeq,
	}
}

func (h *harness) newService(t *testing.T, opts Options) *Service {
	t.Helper()
	s := New(h.backend(), opts, nil)
	t.Cleanup(s.Close)
	return s
}

// checkNoLeaks asserts every branch loop was torn down and every fork pin
// released. Teardown runs asynchronously after the last handle closes, so
// poll briefly.
func (h *harness) checkNoLeaks() {
	h.t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if h.live.Load() == 0 && h.e.PinnedForks() == 0 {
			return
		}
		if time.Now().After(deadline) {
			h.t.Fatalf("leak: %d branch loops live, %d fork pins held", h.live.Load(), h.e.PinnedForks())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func sssp(t *testing.T, procs int, bound int64) (*harness, []stream.Tuple) {
	t.Helper()
	tuples := datasets.PowerLawGraph(120, 3, 21)
	h := newHarness(t, algorithms.SSSP{Source: 0}, procs, bound)
	h.e.IngestAll(tuples)
	if err := h.e.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	return h, tuples
}

func checkSSSP(t *testing.T, res *Result, tuples []stream.Tuple) {
	t.Helper()
	want := algorithms.RefSSSP(tuples[:res.ForkSeq()], 0, 64)
	err := res.Scan(func(id stream.VertexID, state any) error {
		if got := state.(*algorithms.SSSPState).Length; got != want[id] {
			t.Fatalf("vertex %d: got %d, reference %d (forkSeq %d)", id, got, want[id], res.ForkSeq())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSubmitMatchesReference(t *testing.T) {
	h, tuples := sssp(t, 3, 32)
	s := h.newService(t, Options{DisableCache: true})
	tk, err := s.Submit(context.Background(), QuerySpec{Timeout: waitFor})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tk.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.ForkSeq() != uint64(len(tuples)) {
		t.Fatalf("forkSeq %d; want %d", res.ForkSeq(), len(tuples))
	}
	checkSSSP(t, res, tuples)
	res.Close()
	res.Close() // idempotent
	s.Close()
	h.checkNoLeaks()
}

func TestCoalescingStorm(t *testing.T) {
	h, tuples := sssp(t, 3, 32)
	// Cache on: submits that arrive after the first flight converges are
	// lag-0 cache hits; submits during the flight coalesce onto it. Either
	// way the fork count stays tiny.
	s := h.newService(t, Options{Workers: 2})

	const clients = 64
	var wg sync.WaitGroup
	results := make([]*Result, clients)
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tk, err := s.Submit(context.Background(), QuerySpec{Timeout: waitFor})
			if err != nil {
				errs[i] = err
				return
			}
			results[i], errs[i] = tk.Wait(context.Background())
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	for _, res := range results {
		checkSSSP(t, res, tuples)
	}
	snap := s.Snapshot()
	if snap.Admitted > 4 {
		t.Fatalf("%d identical concurrent queries forked %d branches; want <= 4", clients, snap.Admitted)
	}
	if snap.Coalesced+snap.CacheHits < clients/2 {
		t.Fatalf("only %d of %d queries shared a branch (%d coalesced, %d cache hits)",
			snap.Coalesced+snap.CacheHits, clients, snap.Coalesced, snap.CacheHits)
	}
	for _, res := range results {
		res.Close()
	}
	s.Close()
	h.checkNoLeaks()
}

func TestCacheHitAndInvalidation(t *testing.T) {
	h, tuples := sssp(t, 2, 32)
	s := h.newService(t, Options{sweepEvery: time.Hour}) // no janitor interference

	tk, err := s.Submit(context.Background(), QuerySpec{Timeout: waitFor})
	if err != nil {
		t.Fatal(err)
	}
	first, err := tk.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	first.Close()

	// Quiescent system: even a zero-tolerance query is a cache hit (lag 0).
	tk, err = s.Submit(context.Background(), QuerySpec{Timeout: waitFor})
	if err != nil {
		t.Fatal(err)
	}
	hit, err := tk.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !hit.CacheHit || hit.Staleness != 0 {
		t.Fatalf("quiescent re-issue: CacheHit=%v Staleness=%d; want hit with 0 staleness", hit.CacheHit, hit.Staleness)
	}
	hit.Close()

	// Ingest past the fork: zero tolerance must re-fork, a declared
	// tolerance is served stale from the cache.
	extra := []stream.Tuple{stream.AddEdge(9001, 0, 117), stream.AddEdge(9002, 117, 118)}
	h.e.IngestAll(extra)
	if err := h.e.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}

	tk, err = s.Submit(context.Background(), QuerySpec{Timeout: waitFor, MaxStaleDeltas: 100})
	if err != nil {
		t.Fatal(err)
	}
	stale, err := tk.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !stale.CacheHit || stale.Staleness != uint64(len(extra)) {
		t.Fatalf("stale-tolerant re-issue: CacheHit=%v Staleness=%d; want hit %d deltas stale", stale.CacheHit, stale.Staleness, len(extra))
	}
	// The stale answer reflects exactly the pre-ingest prefix.
	checkSSSP(t, stale, tuples)
	stale.Close()

	tk, err = s.Submit(context.Background(), QuerySpec{Timeout: waitFor})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := tk.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if fresh.CacheHit {
		t.Fatal("zero-tolerance query served a stale cached result")
	}
	if fresh.ForkSeq() != uint64(len(tuples)+len(extra)) {
		t.Fatalf("fresh forkSeq %d; want %d", fresh.ForkSeq(), len(tuples)+len(extra))
	}
	checkSSSP(t, fresh, append(append([]stream.Tuple{}, tuples...), extra...))
	fresh.Close()

	snap := s.Snapshot()
	if snap.CacheHits != 2 {
		t.Fatalf("cache hits = %d; want 2", snap.CacheHits)
	}
	s.Close()
	h.checkNoLeaks()
}

func TestSeededQueriesArePrivate(t *testing.T) {
	h, _ := sssp(t, 2, 32)
	s := h.newService(t, Options{})
	for i := 0; i < 2; i++ {
		tk, err := s.Submit(context.Background(), QuerySpec{Timeout: waitFor, Seed: func(*engine.Engine) {}})
		if err != nil {
			t.Fatal(err)
		}
		res, err := tk.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if res.CacheHit || res.Coalesced {
			t.Fatalf("seeded query %d shared a branch: CacheHit=%v Coalesced=%v", i, res.CacheHit, res.Coalesced)
		}
		res.Close()
	}
	if snap := s.Snapshot(); snap.Admitted != 2 {
		t.Fatalf("admitted = %d; want one private fork per seeded query", snap.Admitted)
	}
	s.Close()
	h.checkNoLeaks()
}

func TestShedWhenOverloaded(t *testing.T) {
	h, _ := sssp(t, 2, 32)
	s := h.newService(t, Options{Workers: 1, QueueCap: 1, DisableCache: true})

	// Occupy the only worker with a fork whose seed hook blocks.
	gate := make(chan struct{})
	entered := make(chan struct{})
	var once sync.Once
	tk1, err := s.Submit(context.Background(), QuerySpec{
		Timeout: waitFor,
		Seed:    func(*engine.Engine) { once.Do(func() { close(entered) }); <-gate },
	})
	if err != nil {
		t.Fatal(err)
	}
	<-entered

	// Fill the queue (seeded: private, cannot coalesce with anything).
	tk2, err := s.Submit(context.Background(), QuerySpec{Timeout: waitFor, Seed: func(*engine.Engine) {}})
	if err != nil {
		t.Fatal(err)
	}
	// Queue full: the third query is shed.
	if _, err := s.Submit(context.Background(), QuerySpec{Timeout: waitFor, Seed: func(*engine.Engine) {}}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("submit into a full queue: err = %v; want ErrOverloaded", err)
	}
	if snap := s.Snapshot(); snap.Shed != 1 {
		t.Fatalf("shed = %d; want 1", snap.Shed)
	}

	close(gate)
	for _, tk := range []*Ticket{tk1, tk2} {
		res, err := tk.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		res.Close()
	}
	s.Close()
	h.checkNoLeaks()
}

func TestPriorityOrdering(t *testing.T) {
	h, _ := sssp(t, 2, 32)
	s := h.newService(t, Options{Workers: 1, DisableCache: true})

	gate := make(chan struct{})
	entered := make(chan struct{})
	var once sync.Once
	blocker, err := s.Submit(context.Background(), QuerySpec{
		Timeout: waitFor,
		Seed:    func(*engine.Engine) { once.Do(func() { close(entered) }); <-gate },
	})
	if err != nil {
		t.Fatal(err)
	}
	<-entered

	// Three private queries queued behind the blocker; their seed hooks
	// record fork order.
	var mu sync.Mutex
	var order []int
	tks := make([]*Ticket, 0, 3)
	for _, prio := range []int{1, 5, 3} {
		p := prio
		tk, err := s.Submit(context.Background(), QuerySpec{
			Timeout:  waitFor,
			Priority: p,
			Seed: func(*engine.Engine) {
				mu.Lock()
				order = append(order, p)
				mu.Unlock()
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		tks = append(tks, tk)
	}

	close(gate)
	for _, tk := range append([]*Ticket{blocker}, tks...) {
		res, err := tk.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		res.Close()
	}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 3 || order[0] != 5 || order[1] != 3 || order[2] != 1 {
		t.Fatalf("fork order %v; want [5 3 1] (priority desc)", order)
	}
	s.Close()
	h.checkNoLeaks()
}

func TestCancelQueued(t *testing.T) {
	h, _ := sssp(t, 2, 32)
	s := h.newService(t, Options{Workers: 1, DisableCache: true})

	gate := make(chan struct{})
	entered := make(chan struct{})
	var once sync.Once
	blocker, err := s.Submit(context.Background(), QuerySpec{
		Timeout: waitFor,
		Seed:    func(*engine.Engine) { once.Do(func() { close(entered) }); <-gate },
	})
	if err != nil {
		t.Fatal(err)
	}
	<-entered

	victim, err := s.Submit(context.Background(), QuerySpec{Timeout: waitFor, Seed: func(*engine.Engine) {}})
	if err != nil {
		t.Fatal(err)
	}
	victim.Cancel()
	if _, err := victim.Wait(context.Background()); !errors.Is(err, ErrCancelled) {
		t.Fatalf("cancelled ticket resolved with %v; want ErrCancelled", err)
	}
	if !s.Cancel(victim.ID()) {
		// Already forgotten: also fine — Cancel by ID on an unknown ticket
		// must simply report false, not panic.
		t.Log("ticket already forgotten after cancellation")
	}

	close(gate)
	res, err := blocker.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	res.Close()
	// The cancelled flight must be skipped, not forked.
	if snap := s.Snapshot(); snap.Admitted != 1 || snap.Cancelled != 1 {
		t.Fatalf("admitted=%d cancelled=%d; want 1 and 1", snap.Admitted, snap.Cancelled)
	}
	s.Close()
	h.checkNoLeaks()
}

func TestContextCancelPropagates(t *testing.T) {
	h, _ := sssp(t, 2, 32)
	s := h.newService(t, Options{Workers: 1, DisableCache: true})

	gate := make(chan struct{})
	entered := make(chan struct{})
	var once sync.Once
	blocker, err := s.Submit(context.Background(), QuerySpec{
		Timeout: waitFor,
		Seed:    func(*engine.Engine) { once.Do(func() { close(entered) }); <-gate },
	})
	if err != nil {
		t.Fatal(err)
	}
	<-entered

	ctx, cancel := context.WithCancel(context.Background())
	queued, err := s.Submit(ctx, QuerySpec{Timeout: waitFor, Seed: func(*engine.Engine) {}})
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, err := queued.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("ctx-cancelled ticket resolved with %v; want context.Canceled", err)
	}

	close(gate)
	res, err := blocker.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	res.Close()
	s.Close()
	h.checkNoLeaks()
}

// babbler never quiesces: every gather re-scatters, so a branch forked from
// it can never converge and queries against it must time out.
type babbler struct{}

type babblerState struct{ N int64 }

func init() { engine.RegisterStateType(&babblerState{}) }

func (babbler) Init(ctx engine.Context)              { ctx.SetState(&babblerState{}) }
func (babbler) OnInput(engine.Context, stream.Tuple) {}
func (babbler) Gather(ctx engine.Context, _ stream.VertexID, _ int64, _ any) {
	ctx.State().(*babblerState).N++
}
func (babbler) Scatter(ctx engine.Context) {
	st := ctx.State().(*babblerState)
	for _, t := range ctx.Targets() {
		ctx.Emit(t, st.N)
	}
}

func TestDeadlineAbortReleasesPins(t *testing.T) {
	h := newHarness(t, babbler{}, 1, 4)
	h.e.Ingest(stream.AddEdge(1, 0, 1))
	h.e.Ingest(stream.AddEdge(2, 1, 0))
	time.Sleep(20 * time.Millisecond)

	s := h.newService(t, Options{DisableCache: true})
	tk, err := s.Submit(context.Background(), QuerySpec{Timeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tk.Wait(context.Background()); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("non-converging query resolved with %v; want DeadlineExceeded", err)
	}
	// The expired query was its branch's only client: the abort must stop
	// the branch and release its snapshot pin promptly, well before the
	// query's nominal convergence budget would have elapsed.
	h.checkNoLeaks()
	if snap := s.Snapshot(); snap.Expired != 1 {
		t.Fatalf("expired = %d; want 1", snap.Expired)
	}
	s.Close()
}

func TestCloseResolvesQueued(t *testing.T) {
	h, _ := sssp(t, 2, 32)
	s := New(h.backend(), Options{Workers: 1, DisableCache: true}, nil)

	gate := make(chan struct{})
	entered := make(chan struct{})
	var once sync.Once
	blocker, err := s.Submit(context.Background(), QuerySpec{
		Timeout: waitFor,
		Seed:    func(*engine.Engine) { once.Do(func() { close(entered) }); <-gate },
	})
	if err != nil {
		t.Fatal(err)
	}
	<-entered
	queued, err := s.Submit(context.Background(), QuerySpec{Timeout: waitFor, Seed: func(*engine.Engine) {}})
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	go func() { s.Close(); close(done) }()
	if _, err := queued.Wait(context.Background()); !errors.Is(err, ErrClosed) {
		t.Fatalf("queued ticket at Close resolved with %v; want ErrClosed", err)
	}
	if _, err := blocker.Wait(context.Background()); !errors.Is(err, ErrClosed) {
		t.Fatalf("running ticket at Close resolved with %v; want ErrClosed", err)
	}
	close(gate) // let the blocked fork finish so Close can drain
	<-done
	if _, err := s.Submit(context.Background(), QuerySpec{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after Close: %v; want ErrClosed", err)
	}
	h.checkNoLeaks()
}

// TestResultFreshnessTracksLag pins Result.Freshness(): a held result's
// staleness watermark is live — it reads 0 while the main loop sits at the
// fork's journal sequence and grows by exactly the number of inputs ingested
// afterwards (the slow-consumer case: the handle outlives its exactness).
func TestResultFreshnessTracksLag(t *testing.T) {
	h, tuples := sssp(t, 3, 32)
	s := h.newService(t, Options{DisableCache: true})
	tk, err := s.Submit(context.Background(), QuerySpec{Timeout: waitFor})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tk.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	if got := res.Freshness(); got != 0 {
		t.Fatalf("Freshness() = %d right after an exact serve; want 0", got)
	}
	if res.Staleness != 0 {
		t.Fatalf("Staleness = %d at serve; want 0", res.Staleness)
	}

	// The slow consumer holds the handle while the main loop moves on.
	const extra = 37
	more := make([]stream.Tuple, 0, extra)
	for i := 0; i < extra; i++ {
		more = append(more, stream.AddEdge(stream.Timestamp(10_000+i),
			stream.VertexID(i%50), stream.VertexID((i+7)%50)))
	}
	h.e.IngestAll(more)
	if got := res.Freshness(); got != extra {
		t.Fatalf("Freshness() = %d after %d more inputs; want %d", got, extra, extra)
	}
	if want := h.e.JournalSeq() - res.ForkSeq(); res.Freshness() != want {
		t.Fatalf("Freshness() = %d; JournalSeq-ForkSeq = %d", res.Freshness(), want)
	}
	if err := h.e.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	_ = tuples
}
