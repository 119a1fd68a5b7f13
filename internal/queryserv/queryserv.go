// Package queryserv is Tornado's query-serving front end: an asynchronous
// admission-controlled service layered over the engine's branch-loop fork
// path (Section 5.2 of the paper).
//
// The raw fork path answers one query with one branch loop. That is the
// right primitive but the wrong front door: a hundred clients asking "what
// is the answer now?" would pay a hundred independent forks, with nothing
// bounding the number of concurrent branch loops and nothing reusing a
// result that is seconds old and still exact. The service adds the three
// layers a real serving tier needs:
//
//   - Admission control. A fixed pool of workers runs branch loops; queries
//     beyond the pool wait in a bounded priority/FIFO queue and are shed
//     with ErrOverloaded when the queue is full, so overload degrades into
//     fast failures instead of unbounded fork storms.
//
//   - Coalescing. Concurrent queries whose forks would land on the same
//     frontier — same main loop, same input-journal sequence, compatible
//     configuration override — share one branch loop, and the single
//     converged result fans out to every waiter through refcounted handles.
//     N simultaneous identical clients cost one fork.
//
//   - A freshness-bounded result cache. A converged result is retained,
//     keyed by its override key and stamped with the input-journal sequence
//     it forked at. A later query declaring a staleness tolerance
//     (MaxStaleDeltas input deltas and/or MaxStaleAge wall clock) is served
//     straight from the cache when the main loop has not ingested past the
//     bound; entries are invalidated as ingestion moves on, which also
//     releases their snapshot pins so journal compaction can proceed.
//
// Results are refcounted: waiters of a coalesced flight and the cache all
// hold references to one shared branch loop, and the loop is stopped and its
// stored versions dropped only when the last reference is closed. Close is
// idempotent per handle.
package queryserv

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"tornado/internal/engine"
	"tornado/internal/obs"
	"tornado/internal/obs/trace"
	"tornado/internal/storage"
	"tornado/internal/stream"
)

// Service errors.
var (
	// ErrOverloaded is returned by Submit when the wait queue is full; the
	// query was shed without forking anything (backpressure).
	ErrOverloaded = errors.New("queryserv: overloaded, query shed")
	// ErrClosed is returned for queries submitted to (or still queued in) a
	// closed service.
	ErrClosed = errors.New("queryserv: service closed")
	// ErrCancelled resolves tickets cancelled via Cancel.
	ErrCancelled = errors.New("queryserv: query cancelled")
)

// Backend is the slice of the system the service drives. It is how the
// service stays layered strictly over the fork path without importing the
// top-level package.
type Backend struct {
	// Fork forks one branch loop from the main loop's current frontier and
	// returns the branch engine, its fork spec and the loop ID its versions
	// live under. Required.
	Fork func(override func(*engine.Config), seed func(*engine.Engine)) (*engine.Engine, engine.ForkSpec, storage.LoopID, error)
	// Drop releases a stopped branch loop's stored versions. Required.
	Drop func(storage.LoopID)
	// JournalSeq is the main loop's input-journal sequence: the number of
	// inputs ever ingested. It keys coalescing and cache freshness. Required.
	JournalSeq func() uint64
	// OnConverged, when non-nil, observes each branch loop's fork-to-
	// convergence wall time (the system-level convergence histogram).
	OnConverged func(time.Duration)
}

// Options tune a Service. The zero value is usable.
type Options struct {
	// Workers is the number of branch loops run concurrently (default 4).
	Workers int
	// QueueCap bounds the wait queue of admitted-but-not-yet-running
	// flights; Submit sheds with ErrOverloaded beyond it (default 128).
	QueueCap int
	// DefaultTimeout is the per-query convergence budget applied when a
	// QuerySpec carries none (default 1m).
	DefaultTimeout time.Duration
	// CacheCap is the maximum number of converged results retained for
	// staleness-tolerant queries (default 8; negative disables the cache).
	CacheCap int
	// CacheMaxAge invalidates cached results older than this regardless of
	// query tolerances, bounding how long a cache entry may pin its fork
	// snapshot (default 10s).
	CacheMaxAge time.Duration
	// CacheMaxDeltas invalidates cached results once the main loop has
	// ingested more than this many inputs past their fork (default 4096).
	CacheMaxDeltas uint64
	// SweepEvery is the janitor period for cache invalidation (default
	// 250ms). Invalidation also happens lazily on lookups; the janitor only
	// bounds how long an idle service pins stale snapshots.
	SweepEvery time.Duration
	// DisableCoalescing forks one branch per query even when queries could
	// share (benchmarking the sharing win).
	DisableCoalescing bool
	// DisableCache turns the result cache off (benchmarking, and tests that
	// assert branch teardown on Close).
	DisableCache bool
	// DegradeStaleDeltas is the staleness tolerance the service imposes on
	// every query while degraded (level >= 1): cache hits and running-flight
	// joins are accepted up to this many input deltas behind the present even
	// when the query asked for less, trading exactness for fork load
	// (default 1024).
	DegradeStaleDeltas uint64
	// ShedBelowPriority is the admission cut applied at degrade level >= 2:
	// queries with Priority below it are shed with ErrOverloaded before they
	// can queue a new flight (default 1, i.e. the zero/default priority is
	// the first traffic dropped).
	ShedBelowPriority int
}

func (o *Options) fill() {
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.QueueCap <= 0 {
		o.QueueCap = 128
	}
	if o.DefaultTimeout <= 0 {
		o.DefaultTimeout = time.Minute
	}
	if o.CacheCap == 0 {
		o.CacheCap = 8
	}
	if o.CacheMaxAge <= 0 {
		o.CacheMaxAge = 10 * time.Second
	}
	if o.CacheMaxDeltas == 0 {
		o.CacheMaxDeltas = 4096
	}
	if o.SweepEvery <= 0 {
		o.SweepEvery = 250 * time.Millisecond
	}
	if o.DegradeStaleDeltas == 0 {
		o.DegradeStaleDeltas = 1024
	}
	if o.ShedBelowPriority == 0 {
		o.ShedBelowPriority = 1
	}
}

// QuerySpec describes one query.
type QuerySpec struct {
	// Timeout is the convergence budget from submission to result
	// (queueing included); 0 uses the service default. The context passed
	// to Submit may impose an earlier deadline.
	Timeout time.Duration
	// MaxStaleDeltas is how many input-journal deltas the answer may lag
	// behind the main loop's present. 0 demands a result reflecting every
	// input ingested before submission (which still allows sharing a result
	// forked at the current sequence).
	MaxStaleDeltas uint64
	// MaxStaleAge additionally bounds a stale result's wall-clock age;
	// <= 0 leaves age unbounded (the delta bound alone governs).
	MaxStaleAge time.Duration
	// Priority orders the wait queue: higher runs earlier; equal priorities
	// run FIFO.
	Priority int
	// Override tweaks the branch configuration before launch (e.g. a
	// different delay bound). Two queries may share a branch only when
	// their OverrideKeys match, so a non-empty OverrideKey asserts that the
	// override is deterministic and identical for every query carrying the
	// key. A non-nil Override with an empty key is private: never coalesced,
	// never cached.
	Override func(*engine.Config)
	// OverrideKey names the override for coalescing and caching.
	OverrideKey string
	// Seed runs under the branch's bootstrap guard before it may converge
	// (e.g. activating SGD sampler vertices). Seeded queries mutate their
	// branch, so they are always private: one fork each, uncached.
	Seed func(*engine.Engine)
}

// shareKey returns the coalescing/cache key, and whether the query may share
// a branch at all.
func (q *QuerySpec) shareKey() (string, bool) {
	if q.Seed != nil {
		return "", false
	}
	if q.Override != nil && q.OverrideKey == "" {
		return "", false
	}
	return q.OverrideKey, true
}

// shared is one converged branch loop referenced by any number of Result
// handles plus possibly the cache. The branch is stopped and its versions
// dropped when the last reference is released.
type shared struct {
	br      *engine.Engine
	spec    engine.ForkSpec
	loop    storage.LoopID
	forkSeq uint64
	created time.Time
	drop    func(storage.LoopID)

	mu   sync.Mutex
	refs int
}

func (sh *shared) acquire() {
	sh.mu.Lock()
	sh.refs++
	sh.mu.Unlock()
}

// release drops one reference; the caller must not hold the service mutex
// (tearing the branch down waits for its goroutines).
func (sh *shared) release() {
	sh.mu.Lock()
	sh.refs--
	last := sh.refs == 0
	sh.mu.Unlock()
	if last {
		sh.br.Stop()
		sh.drop(sh.loop)
	}
}

// Result is one handle on a converged query result. Any number of handles
// may share one branch loop; Close is idempotent per handle and the branch
// is released when every handle (and the cache) has closed.
type Result struct {
	sh  *shared
	svc *Service

	once    sync.Once
	onClose func()

	// Latency is the submitter's end-to-end wall time, queueing included.
	Latency time.Duration
	// CacheHit reports that the result was served from the cache.
	CacheHit bool
	// Coalesced reports that the query shared another query's branch loop.
	Coalesced bool
	// Staleness is how many input deltas the main loop had ingested past
	// this result's fork when it was served (0 = exact at serve time).
	Staleness uint64
}

// Freshness is the result's staleness watermark right now: how many input
// deltas the main loop has ingested past this result's fork. Unlike the
// Staleness field (frozen at serve time) it is live — a held handle drifts
// as ingestion moves on, which is what a freshness-bounded reader polls.
func (r *Result) Freshness() uint64 {
	cur := r.svc.b.JournalSeq()
	if cur <= r.sh.forkSeq {
		return 0
	}
	return cur - r.sh.forkSeq
}

// Read returns the branch's converged state of one vertex.
func (r *Result) Read(id stream.VertexID) (any, int64, error) {
	return r.sh.br.ReadState(id, math.MaxInt64)
}

// Scan visits the branch's state of every vertex in ascending ID order.
func (r *Result) Scan(fn func(id stream.VertexID, state any) error) error {
	return r.sh.br.ScanStates(math.MaxInt64, func(id stream.VertexID, _ int64, state any) error {
		return fn(id, state)
	})
}

// Engine exposes the underlying branch engine (advanced reads, merging).
func (r *Result) Engine() *engine.Engine { return r.sh.br }

// ForkSpec returns the fork point the branch was taken at.
func (r *Result) ForkSpec() engine.ForkSpec { return r.sh.spec }

// ForkSeq returns the main loop's input-journal sequence at fork time: the
// number of ingested inputs this result reflects.
func (r *Result) ForkSeq() uint64 { return r.sh.forkSeq }

// Close releases this handle. It is idempotent; the shared branch loop is
// stopped and its versions dropped when the last handle closes.
func (r *Result) Close() {
	r.once.Do(func() {
		if r.onClose != nil {
			r.onClose()
		}
		r.sh.release()
	})
}

// ticketState is a Ticket's lifecycle phase.
type ticketState int

const (
	ticketQueued ticketState = iota
	ticketRunning
	ticketDone
)

func (s ticketState) String() string {
	switch s {
	case ticketQueued:
		return "queued"
	case ticketRunning:
		return "running"
	default:
		return "done"
	}
}

// Ticket is a submitted query's handle: non-blocking result retrieval,
// waiting, and cancellation.
type Ticket struct {
	id        uint64
	svc       *Service
	spec      QuerySpec
	submitted time.Time
	deadline  time.Time
	coalesced bool
	tctx      trace.Context

	timer *time.Timer

	// Guarded by svc.mu until done is closed; immutable afterwards.
	fl  *flight
	res *Result
	err error

	done chan struct{}
}

// ID identifies the ticket within its service.
func (t *Ticket) ID() uint64 { return t.id }

// Done is closed when the query resolves (result, error, or cancellation).
func (t *Ticket) Done() <-chan struct{} { return t.done }

// Poll returns the outcome without blocking; ok is false while the query is
// still pending.
func (t *Ticket) Poll() (res *Result, err error, ok bool) {
	select {
	case <-t.done:
		return t.res, t.err, true
	default:
		return nil, nil, false
	}
}

// Wait blocks until the query resolves or ctx is done. A ctx expiry does not
// cancel the query; call Cancel for that.
func (t *Ticket) Wait(ctx context.Context) (*Result, error) {
	select {
	case <-t.done:
		return t.res, t.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Cancel withdraws the query: queued queries leave the queue, a running
// query's branch is aborted once no other client shares it, and an already
// resolved but uncollected result is closed. Safe to call any time.
func (t *Ticket) Cancel() { t.svc.cancelTicket(t, ErrCancelled) }

// flightState is a flight's lifecycle phase.
type flightState int

const (
	flightQueued flightState = iota
	flightRunning
	flightDone
)

// flight is one (possibly shared) branch-loop execution.
type flight struct {
	seq       uint64 // FIFO tiebreak
	key       string
	shareable bool
	spec      QuerySpec
	priority  int
	enqueued  time.Time
	state     flightState
	forked    bool
	forkSeq   uint64
	waiters   []*Ticket
	index     int           // heap index; -1 when not queued
	tctx      trace.Context // creator's causal span context

	abortOnce sync.Once
	abort     chan struct{}
}

func (f *flight) abortNow() {
	f.abortOnce.Do(func() { close(f.abort) })
}

// flightQueueHeap orders pending flights by priority (higher first), then
// submission order (FIFO).
type flightQueueHeap []*flight

func (h flightQueueHeap) Len() int { return len(h) }
func (h flightQueueHeap) Less(i, j int) bool {
	if h[i].priority != h[j].priority {
		return h[i].priority > h[j].priority
	}
	return h[i].seq < h[j].seq
}
func (h flightQueueHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index, h[j].index = i, j
}
func (h *flightQueueHeap) Push(x any) {
	f := x.(*flight)
	f.index = len(*h)
	*h = append(*h, f)
}
func (h *flightQueueHeap) Pop() any {
	old := *h
	n := len(old)
	f := old[n-1]
	old[n-1] = nil
	f.index = -1
	*h = old[:n-1]
	return f
}

// cacheEntry is one retained converged result.
type cacheEntry struct {
	key string
	sh  *shared
}

// Snapshot is a point-in-time copy of the service counters and levels.
type Snapshot struct {
	Submitted, Admitted, Coalesced, CacheHits int64
	Shed, Cancelled, Expired, Failed          int64
	Completed                                 int64
	QueueDepth, Inflight, Cached, Tickets     int
	// DegradeLevel is the current graceful-degradation level (0 = exact
	// service); ShedLowPriority counts queries dropped by the level-2
	// priority cut (a subset of Shed).
	DegradeLevel    int
	ShedLowPriority int64
}

// Service is the query-serving front end. Create one with New; it owns a
// worker pool, the wait queue, the in-flight coalescing table and the
// result cache.
type Service struct {
	b    Backend
	opts Options

	mu      sync.Mutex
	cond    *sync.Cond
	queue   flightQueueHeap
	flights map[string]*flight // shareable queued/running flights by key
	cache   map[string]*cacheEntry
	tickets map[uint64]*Ticket
	nextID  uint64
	nextSeq uint64
	running int
	closed  bool

	wg     sync.WaitGroup
	sweepC chan struct{}

	// Counters (atomic via metrics? plain under mu is enough: all paths
	// already hold mu). Exposed through Snapshot and the obs scope.
	submitted, admitted, coalesced, cacheHits int64
	shed, cancelled, expired, failed          int64
	completed, shedLowPri                     int64

	// degraded is the graceful-degradation level set by the overload
	// controller; it only widens tolerances and cuts admission, it never
	// changes what an admitted query computes.
	degraded int

	obsScope  *obs.Scope
	obsDetach func()
	waitHist  *obs.StreamHist
	e2eHist   *obs.StreamHist
	staleHist *obs.StreamHist

	// spans records causal query-path spans (submit/cache/coalesce/queue/
	// fork/wait/serve) and shed escalations; nil-safe when no hub is wired.
	spans *trace.Tracer
}

// New assembles and starts a service over the backend. hub, when non-nil,
// receives the serving metrics (queue depth, admission/coalescing/cache/shed
// counters, wait and end-to-end latency histograms) and a /statusz section.
func New(b Backend, opts Options, hub *obs.Hub) *Service {
	opts.fill()
	s := &Service{
		b:       b,
		opts:    opts,
		flights: make(map[string]*flight),
		cache:   make(map[string]*cacheEntry),
		tickets: make(map[uint64]*Ticket),
		sweepC:  make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	if hub != nil {
		s.spans = hub.Spans
		s.attachObs(hub)
	}
	for i := 0; i < opts.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	s.wg.Add(1)
	go s.sweeper()
	return s
}

// attachObs registers the serving metrics under kind="queryserv".
func (s *Service) attachObs(hub *obs.Hub) {
	sc := hub.Registry.Scope(obs.L("kind", "queryserv"))
	s.obsScope = sc
	counter := func(name, help string, v *int64) {
		sc.GaugeFunc(name, help, func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(*v)
		})
	}
	// Monotone counts exposed as gauges reading the mu-guarded fields; the
	// hot path pays nothing beyond the mutex it already holds.
	counter("tornado_queries_submitted_total", "Queries submitted to the query service.", &s.submitted)
	counter("tornado_queries_admitted_total", "Branch-loop flights actually forked.", &s.admitted)
	counter("tornado_queries_coalesced_total", "Queries that shared another query's branch loop.", &s.coalesced)
	counter("tornado_queries_cache_hits_total", "Queries served from the freshness-bounded result cache.", &s.cacheHits)
	counter("tornado_queries_shed_total", "Queries shed with ErrOverloaded by the bounded wait queue.", &s.shed)
	counter("tornado_queries_cancelled_total", "Queries cancelled by their clients.", &s.cancelled)
	counter("tornado_queries_expired_total", "Queries that hit their deadline before resolving.", &s.expired)
	counter("tornado_queries_failed_total", "Queries that failed (fork error or branch abort).", &s.failed)
	counter("tornado_queries_completed_total", "Queries resolved with a result.", &s.completed)
	counter("tornado_queries_shed_low_priority_total",
		"Queries shed by the degrade-level-2 priority cut (subset of shed).", &s.shedLowPri)
	sc.GaugeFunc("tornado_query_degrade_level", "Graceful-degradation level (0 = exact service).", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(s.degraded)
	})
	sc.GaugeFunc("tornado_query_queue_depth", "Flights waiting for a worker.", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(len(s.queue))
	})
	sc.GaugeFunc("tornado_queries_inflight", "Branch-loop flights currently running.", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(s.running)
	})
	sc.GaugeFunc("tornado_query_cache_entries", "Converged results currently cached.", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(len(s.cache))
	})
	s.waitHist = sc.Histogram("tornado_query_wait_seconds",
		"Queue wait from submission to the flight's fork.", nil)
	s.e2eHist = sc.Histogram("tornado_query_latency_seconds",
		"End-to-end query latency from submission to resolution.", nil)
	s.staleHist = sc.Histogram("tornado_query_staleness_deltas",
		"Input-journal deltas between a served result's fork and the present (journal-seq age at serve time).",
		obs.ExpBuckets(1, 2, 20))
	hub.AddStatus("queryserv", func() any {
		snap := s.Snapshot()
		return map[string]any{
			"submitted":         snap.Submitted,
			"admitted":          snap.Admitted,
			"coalesced":         snap.Coalesced,
			"cache_hits":        snap.CacheHits,
			"shed":              snap.Shed,
			"cancelled":         snap.Cancelled,
			"expired":           snap.Expired,
			"failed":            snap.Failed,
			"completed":         snap.Completed,
			"queue_depth":       snap.QueueDepth,
			"inflight":          snap.Inflight,
			"cached":            snap.Cached,
			"tickets":           snap.Tickets,
			"workers":           s.opts.Workers,
			"queue_cap":         s.opts.QueueCap,
			"degrade_level":     snap.DegradeLevel,
			"shed_low_priority": snap.ShedLowPriority,
		}
	})
	s.obsDetach = func() {
		hub.RemoveStatus("queryserv")
		sc.Close()
	}
}

// Snapshot returns the current counters and levels.
func (s *Service) Snapshot() Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Snapshot{
		Submitted: s.submitted, Admitted: s.admitted, Coalesced: s.coalesced,
		CacheHits: s.cacheHits, Shed: s.shed, Cancelled: s.cancelled,
		Expired: s.expired, Failed: s.failed, Completed: s.completed,
		QueueDepth: len(s.queue), Inflight: s.running, Cached: len(s.cache),
		Tickets: len(s.tickets), DegradeLevel: s.degraded, ShedLowPriority: s.shedLowPri,
	}
}

// SetDegraded moves the service to the given graceful-degradation level
// (clamped at 0). Level 0 is exact service; level 1 imposes
// Options.DegradeStaleDeltas as a floor on every query's staleness tolerance
// so cache hits and coalescing absorb more load; level 2 additionally sheds
// queries below Options.ShedBelowPriority with ErrOverloaded before they can
// fork. The overload controller drives this; it is also callable directly.
func (s *Service) SetDegraded(level int) {
	if level < 0 {
		level = 0
	}
	s.mu.Lock()
	s.degraded = level
	s.mu.Unlock()
}

// Degraded returns the current graceful-degradation level.
func (s *Service) Degraded() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.degraded
}

// Submit enqueues one query and returns its ticket. The fast paths resolve
// before returning: a cache hit within the spec's staleness bound hands back
// a ready ticket without forking, and a coalescable query joins an existing
// flight. ErrOverloaded means the wait queue was full and nothing was
// enqueued. ctx cancellation and deadline apply to the query itself, not
// just the Submit call.
func (s *Service) Submit(ctx context.Context, spec QuerySpec) (*Ticket, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	timeout := spec.Timeout
	if timeout <= 0 {
		timeout = s.opts.DefaultTimeout
	}
	now := time.Now()
	deadline := now.Add(timeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	key, shareable := spec.shareKey()

	// Each query is a trace head: the sampling decision happens once here,
	// and the context follows the query through cache/coalesce/queue/fork.
	var tctx trace.Context
	if s.spans.Enabled() {
		tctx = s.spans.Begin(s.spans.Now())
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	s.submitted++
	s.nextID++
	t := &Ticket{
		id:        s.nextID,
		svc:       s,
		spec:      spec,
		submitted: now,
		deadline:  deadline,
		tctx:      tctx,
		done:      make(chan struct{}),
	}
	s.tickets[t.id] = t

	// While degraded the service imposes its own staleness tolerance on top
	// of the query's: answers up to DegradeStaleDeltas behind the present are
	// handed out from the cache or a running flight rather than forking,
	// which is the "widen the window" rung of the degradation ladder.
	effStale := spec.MaxStaleDeltas
	if s.degraded >= 1 && s.opts.DegradeStaleDeltas > effStale {
		effStale = s.opts.DegradeStaleDeltas
	}

	// Fast path 1: the freshness-bounded cache.
	if shareable && !s.opts.DisableCache && s.opts.CacheCap > 0 {
		if e, ok := s.cache[key]; ok {
			cur := s.b.JournalSeq()
			lag := cur - e.sh.forkSeq
			age := now.Sub(e.sh.created)
			if lag == 0 || (lag <= effStale &&
				(spec.MaxStaleAge <= 0 || age <= spec.MaxStaleAge)) {
				s.cacheHits++
				e.sh.acquire()
				res := &Result{
					sh: e.sh, svc: s, CacheHit: true, Staleness: lag,
					Latency: time.Since(now),
				}
				if t.tctx.Traced() {
					// Submit -> cache handout; the query's whole life.
					s.spans.Stage(t.tctx, trace.StageQueryCache, 0, trace.NoVertex, 0, s.spans.Now())
				}
				s.resolveLocked(t, res, nil)
				s.mu.Unlock()
				return t, nil
			}
		}
	}

	// Fast path 2: coalesce onto a queued or running flight. A queued
	// flight will fork at a sequence >= the current one, so any query may
	// join it; a running flight already forked at forkSeq and may only
	// absorb queries whose staleness tolerance covers the inputs that
	// arrived since.
	if shareable && !s.opts.DisableCoalescing {
		if f, ok := s.flights[key]; ok {
			join := false
			switch f.state {
			case flightQueued:
				join = true
			case flightRunning:
				if f.forked {
					lag := s.b.JournalSeq() - f.forkSeq
					join = lag <= effStale
				}
			}
			if join {
				s.coalesced++
				t.coalesced = true
				t.fl = f
				if t.tctx.Traced() {
					// Submit -> join, linked to the flight it rides.
					ctx := t.tctx
					ctx.Link = f.tctx.Trace
					t.tctx = s.spans.Stage(ctx, trace.StageQueryCoalesce, 0, trace.NoVertex, 0, s.spans.Now())
				}
				f.waiters = append(f.waiters, t)
				if spec.Priority > f.priority && f.index >= 0 {
					f.priority = spec.Priority
					heap.Fix(&s.queue, f.index)
				}
				s.armTicketLocked(ctx, t)
				s.mu.Unlock()
				return t, nil
			}
		}
	}

	// Slow path: a new flight through the bounded wait queue. At degrade
	// level >= 2 low-priority traffic is cut here — it may still ride the
	// free fast paths above, but it cannot cost a fork.
	if s.degraded >= 2 && spec.Priority < s.opts.ShedBelowPriority {
		s.shed++
		s.shedLowPri++
		delete(s.tickets, t.id)
		s.mu.Unlock()
		// A shed is exactly what tail sampling force-retains: mark it and
		// open the escalation window.
		s.spans.Escalate(trace.MarkShed, t.tctx, s.spans.Now())
		return nil, fmt.Errorf("%w: degraded level %d sheds priority < %d (got %d)",
			ErrOverloaded, s.degraded, s.opts.ShedBelowPriority, spec.Priority)
	}
	if len(s.queue) >= s.opts.QueueCap {
		s.shed++
		delete(s.tickets, t.id)
		s.mu.Unlock()
		s.spans.Escalate(trace.MarkShed, t.tctx, s.spans.Now())
		return nil, fmt.Errorf("%w: %d flights queued (cap %d)", ErrOverloaded, s.opts.QueueCap, s.opts.QueueCap)
	}
	if t.tctx.Traced() {
		// Submit entry -> admitted to a fresh flight.
		t.tctx = s.spans.Stage(t.tctx, trace.StageQuerySubmit, 0, trace.NoVertex, 0, s.spans.Now())
	}
	s.nextSeq++
	f := &flight{
		seq:       s.nextSeq,
		key:       key,
		shareable: shareable,
		spec:      spec,
		priority:  spec.Priority,
		enqueued:  now,
		tctx:      t.tctx,
		abort:     make(chan struct{}),
		index:     -1,
	}
	f.waiters = []*Ticket{t}
	t.fl = f
	heap.Push(&s.queue, f)
	if shareable {
		s.flights[key] = f
	}
	s.armTicketLocked(ctx, t)
	s.cond.Signal()
	s.mu.Unlock()
	return t, nil
}

// armTicketLocked installs the ticket's deadline timer and, when the context
// is cancellable, a watcher goroutine. Caller holds s.mu.
func (s *Service) armTicketLocked(ctx context.Context, t *Ticket) {
	t.timer = time.AfterFunc(time.Until(t.deadline), func() {
		s.cancelTicket(t, fmt.Errorf("queryserv: query %d: %w", t.id, context.DeadlineExceeded))
	})
	if ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				s.cancelTicket(t, ctx.Err())
			case <-t.done:
			}
		}()
	}
}

// resolveLocked finishes a ticket. Caller holds s.mu. Error resolutions are
// forgotten immediately; result resolutions stay tracked until the Result
// handle is closed (so Queries and HTTP GET can find them).
func (s *Service) resolveLocked(t *Ticket, res *Result, err error) {
	select {
	case <-t.done:
		return // already resolved
	default:
	}
	if t.timer != nil {
		t.timer.Stop()
	}
	t.fl = nil
	t.res, t.err = res, err
	if res != nil {
		id := t.id
		res.Coalesced = res.Coalesced || t.coalesced
		res.onClose = func() { s.forget(id) }
		s.completed++
		if s.e2eHist != nil {
			s.e2eHist.Observe(time.Since(t.submitted).Seconds())
		}
		if s.staleHist != nil {
			s.staleHist.Observe(float64(res.Staleness))
		}
		if t.coalesced && t.tctx.Traced() {
			// A coalesced waiter's own trace closes here: join -> handout
			// (its flight's trace carries the queue/fork/wait breakdown).
			s.spans.Stage(t.tctx, trace.StageQueryServe, 0, trace.NoVertex, 0, s.spans.Now())
		}
	} else {
		delete(s.tickets, t.id)
	}
	close(t.done)
}

// forget drops a resolved ticket from the table (its result was closed).
func (s *Service) forget(id uint64) {
	s.mu.Lock()
	delete(s.tickets, id)
	s.mu.Unlock()
}

// cancelTicket withdraws a ticket with the given cause. Unresolved tickets
// detach from their flight (aborting it if they were its last client);
// resolved-but-uncollected results are closed.
func (s *Service) cancelTicket(t *Ticket, cause error) {
	s.mu.Lock()
	select {
	case <-t.done:
		res := t.res
		s.mu.Unlock()
		if res != nil {
			res.Close() // idempotent; forgets the ticket
		}
		return
	default:
	}
	if errors.Is(cause, context.DeadlineExceeded) {
		s.expired++
	} else {
		s.cancelled++
	}
	f := t.fl
	var abort *flight
	if f != nil {
		for i, w := range f.waiters {
			if w == t {
				f.waiters = append(f.waiters[:i], f.waiters[i+1:]...)
				break
			}
		}
		if len(f.waiters) == 0 {
			// Last client gone: a queued flight is skipped when popped; a
			// running flight is aborted so its branch stops and unpins its
			// snapshot promptly rather than converging for nobody.
			if f.shareable && s.flights[f.key] == f {
				delete(s.flights, f.key)
			}
			if f.state == flightRunning {
				abort = f
			}
		}
	}
	s.resolveLocked(t, nil, cause)
	s.mu.Unlock()
	if abort != nil {
		abort.abortNow()
	}
}

// Cancel withdraws the identified query; it reports whether the ticket was
// known.
func (s *Service) Cancel(id uint64) bool {
	s.mu.Lock()
	t, ok := s.tickets[id]
	s.mu.Unlock()
	if !ok {
		return false
	}
	t.Cancel()
	return true
}

// Ticket returns a live (queued, running, or uncollected) ticket by ID.
func (s *Service) Ticket(id uint64) (*Ticket, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tickets[id]
	return t, ok
}

// TicketInfo is one row of Queries.
type TicketInfo struct {
	ID        uint64
	State     string // queued | running | done
	Priority  int
	Coalesced bool
	CacheHit  bool
	Age       time.Duration
	Err       string
}

// Queries lists the live tickets, oldest first.
func (s *Service) Queries() []TicketInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]TicketInfo, 0, len(s.tickets))
	for _, t := range s.tickets {
		info := TicketInfo{
			ID:        t.id,
			Priority:  t.spec.Priority,
			Coalesced: t.coalesced,
			Age:       time.Since(t.submitted),
		}
		select {
		case <-t.done:
			info.State = ticketDone.String()
			if t.err != nil {
				info.Err = t.err.Error()
			}
			if t.res != nil {
				info.CacheHit = t.res.CacheHit
			}
		default:
			info.State = ticketQueued.String()
			if t.fl != nil && t.fl.state == flightRunning {
				info.State = ticketRunning.String()
			}
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// worker runs queued flights until the service closes.
func (s *Service) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for !s.closed && len(s.queue) == 0 {
			s.cond.Wait()
		}
		if s.closed {
			s.mu.Unlock()
			return
		}
		f := heap.Pop(&s.queue).(*flight)
		if len(f.waiters) == 0 {
			// Every client cancelled while it waited.
			f.state = flightDone
			if f.shareable && s.flights[f.key] == f {
				delete(s.flights, f.key)
			}
			s.mu.Unlock()
			continue
		}
		f.state = flightRunning
		s.running++
		s.mu.Unlock()
		s.execute(f)
		s.mu.Lock()
		s.running--
		s.mu.Unlock()
	}
}

// execute forks and drives one flight to convergence (or abort), then fans
// the result out to every waiter and feeds the cache.
func (s *Service) execute(f *flight) {
	start := time.Now()
	if f.tctx.Traced() {
		// Queue dwell closes when a worker picks the flight up.
		f.tctx = s.spans.Stage(f.tctx, trace.StageQueryQueue, 0, trace.NoVertex, 0, s.spans.Now())
	}
	br, spec, loop, err := s.b.Fork(f.spec.Override, f.spec.Seed)
	if f.tctx.Traced() {
		f.tctx = s.spans.Stage(f.tctx, trace.StageQueryFork, 0, trace.NoVertex, uint64(loop), s.spans.Now())
	}
	s.mu.Lock()
	if err != nil {
		s.failed += int64(len(f.waiters))
		ws := f.waiters
		f.waiters = nil
		f.state = flightDone
		if f.shareable && s.flights[f.key] == f {
			delete(s.flights, f.key)
		}
		for _, w := range ws {
			s.resolveLocked(w, nil, fmt.Errorf("queryserv: fork: %w", err))
		}
		s.mu.Unlock()
		return
	}
	s.admitted++
	f.forkSeq = br.ForkJournalSeq()
	f.forked = true
	if s.waitHist != nil {
		s.waitHist.Observe(start.Sub(f.enqueued).Seconds())
	}
	s.mu.Unlock()

	select {
	case <-br.Done():
		latency := time.Since(start)
		if s.b.OnConverged != nil {
			s.b.OnConverged(latency)
		}
		if f.tctx.Traced() {
			// Fork -> branch convergence: the iterate cost of the query.
			f.tctx = s.spans.Stage(f.tctx, trace.StageQueryWait, 0, trace.NoVertex, uint64(loop), s.spans.Now())
		}
		sh := &shared{
			br: br, spec: spec, loop: loop, forkSeq: f.forkSeq,
			created: time.Now(), drop: s.b.Drop,
		}
		sh.refs = 1 // construction reference, released below
		var releases []*shared
		s.mu.Lock()
		f.state = flightDone
		if f.shareable && s.flights[f.key] == f {
			delete(s.flights, f.key)
		}
		ws := f.waiters
		f.waiters = nil
		cur := s.b.JournalSeq()
		for _, w := range ws {
			sh.acquire()
			res := &Result{
				sh: sh, svc: s,
				Latency:   time.Since(w.submitted),
				Coalesced: w.coalesced,
				Staleness: cur - f.forkSeq,
			}
			s.resolveLocked(w, res, nil)
		}
		if f.shareable && !s.opts.DisableCache && s.opts.CacheCap > 0 && !s.closed {
			releases = s.cacheInsertLocked(f.key, sh)
		}
		if f.tctx.Traced() {
			// Convergence -> every waiter resolved.
			s.spans.Stage(f.tctx, trace.StageQueryServe, 0, trace.NoVertex, uint64(loop), s.spans.Now())
		}
		s.mu.Unlock()
		for _, old := range releases {
			old.release()
		}
		sh.release() // drop the construction reference
	case <-f.abort:
		// Every client left (cancelled or expired): stop the branch now so
		// its fork pin releases and journal compaction is not held back by
		// a query nobody is waiting for.
		br.Stop()
		s.b.Drop(loop)
	}
}

// cacheInsertLocked retains sh under key, evicting the key's previous entry
// and, beyond CacheCap, the oldest entries. It returns the shares to release
// once the service mutex is dropped. Caller holds s.mu.
func (s *Service) cacheInsertLocked(key string, sh *shared) (releases []*shared) {
	if old, ok := s.cache[key]; ok {
		releases = append(releases, old.sh)
	}
	sh.acquire()
	s.cache[key] = &cacheEntry{key: key, sh: sh}
	for len(s.cache) > s.opts.CacheCap {
		oldestKey := ""
		var oldest *cacheEntry
		for k, e := range s.cache {
			if oldest == nil || e.sh.created.Before(oldest.sh.created) {
				oldestKey, oldest = k, e
			}
		}
		delete(s.cache, oldestKey)
		releases = append(releases, oldest.sh)
	}
	return releases
}

// sweeper invalidates cache entries that outlived the service staleness
// bounds, releasing their snapshot pins even when no queries arrive.
func (s *Service) sweeper() {
	defer s.wg.Done()
	tick := time.NewTicker(s.opts.SweepEvery)
	defer tick.Stop()
	for {
		select {
		case <-s.sweepC:
			return
		case <-tick.C:
		}
		cur := s.b.JournalSeq()
		now := time.Now()
		var releases []*shared
		s.mu.Lock()
		for k, e := range s.cache {
			if now.Sub(e.sh.created) > s.opts.CacheMaxAge || cur-e.sh.forkSeq > s.opts.CacheMaxDeltas {
				delete(s.cache, k)
				releases = append(releases, e.sh)
			}
		}
		s.mu.Unlock()
		for _, sh := range releases {
			sh.release()
		}
	}
}

// Close drains the service: queued queries resolve with ErrClosed, running
// flights abort, cached results release, and the workers exit. Uncollected
// results are closed. Idempotent.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	var aborts []*flight
	var results []*Result
	for _, t := range s.tickets {
		select {
		case <-t.done:
			if t.res != nil {
				results = append(results, t.res)
			}
			continue
		default:
		}
		if f := t.fl; f != nil {
			for i, w := range f.waiters {
				if w == t {
					f.waiters = append(f.waiters[:i], f.waiters[i+1:]...)
					break
				}
			}
			if len(f.waiters) == 0 && f.state == flightRunning {
				aborts = append(aborts, f)
			}
		}
		s.resolveLocked(t, nil, ErrClosed)
	}
	var releases []*shared
	for k, e := range s.cache {
		delete(s.cache, k)
		releases = append(releases, e.sh)
	}
	s.queue = nil
	s.cond.Broadcast()
	s.mu.Unlock()

	close(s.sweepC)
	for _, f := range aborts {
		f.abortNow()
	}
	for _, r := range results {
		r.Close()
	}
	for _, sh := range releases {
		sh.release()
	}
	s.wg.Wait()
	if s.obsDetach != nil {
		s.obsDetach()
	}
}
