package engine

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tornado/internal/delta"
	"tornado/internal/flow"
	"tornado/internal/obs"
	"tornado/internal/obs/trace"
	"tornado/internal/storage"
	"tornado/internal/stream"
	"tornado/internal/transport"
)

// SnapshotSource tells a new engine to bootstrap vertices from the versions
// of another loop (branch forking, Section 5.2, and checkpoint recovery,
// Section 5.3).
type SnapshotSource struct {
	// UpTo bounds every read: the engine sees the freshest version <= UpTo
	// of each vertex.
	UpTo int64
	// Handle is the point-in-time view of the source loop, taken with
	// Store.Snapshot at fork/recovery time: no concurrent compaction,
	// truncation, or drop of the source loop can narrow what this engine
	// sees. The engine that owns the source releases it on Stop.
	Handle storage.Snapshot
}

// release drops the handle. Idempotent (handles are).
func (s *SnapshotSource) release() {
	if s != nil {
		s.Handle.Release()
	}
}

// Config assembles an Engine.
type Config struct {
	// Processors is the number of processor goroutines the base partition
	// spreads vertices over (>= 1).
	Processors int
	// MaxProcessors is the slot count elastic scaling may grow into (default
	// Processors — no spares; a Reshard past it grows it). Slots
	// Processors..MaxProcessors-1 run idle processors owning no vertices
	// until a repartition (a hot-partition split) routes a range to them.
	MaxProcessors int
	// DelayBound is B, the bound on iteration delays (>= 1). B = 1 yields
	// synchronous (BSP) execution.
	DelayBound int64
	// Kind distinguishes the main loop from branch loops.
	Kind LoopKind
	// LoopID namespaces this loop's versions in the store.
	LoopID storage.LoopID
	// Store holds the versioned vertex states. Required.
	Store storage.Store
	// Program defines vertex behavior (value mode). Exactly one of Program
	// and Delta is required.
	Program Program
	// Delta, when non-nil, runs the loop in delta-accumulative mode
	// (Maiter/REX style, DESIGN.md §13): gathered messages fold into
	// per-vertex pending-delta slots via the program's accumulator, a
	// per-processor priority queue schedules the most significant pendings
	// first, sub-threshold pendings park without committing, and
	// checkpoints persist (state, pending) pairs.
	Delta delta.Program
	// snapshot, when non-nil, bootstraps unseen vertices from another
	// loop's versions instead of Program.Init. ForkBranch and every
	// checkpoint restart set it.
	snapshot *SnapshotSource
	// startIteration is the first iteration this loop may commit in
	// (default 0). Every checkpoint restart — crash recovery or Reshard —
	// moves it above the last terminated iteration, so the resumed loop's
	// versions supersede its history.
	startIteration int64
	// Partition maps vertices to processors; defaults to modulo.
	Partition func(stream.VertexID, int) int
	// ResendAfter is the wire ledger's retransmission timeout (see
	// transport.Options.ResendAfter, which defaults it to 5ms). Only a wire
	// can lose a frame, so it requires Wire.
	ResendAfter time.Duration
	// MaxBatch caps a frame in messages: senders queue vertex messages for a
	// whole receive window, and at its end cut each destination's queue into
	// frames of at most this many. Default 64; 1 (or less) ships every
	// message as a frame of its own, on the same path.
	MaxBatch int
	// CommitDelay, when non-nil, injects per-commit latency into a
	// processor (straggler and I/O-cost modelling in the experiments).
	CommitDelay func(proc int) time.Duration
	// Wire, when non-nil, runs the loop's message plane over a real socket
	// substrate (see WireSpec): every frame is serialized through the
	// CRC32-framed binary codec and crosses a supervised connection to the
	// process's own listener. The wire sheds frames on reconnects and
	// relies on its ledger (timeout ResendAfter) for recovery.
	Wire *WireSpec

	// Flow control (all zero = unbounded legacy behavior).

	// MaxPendingInputs bounds the external inputs admitted into the loop but
	// not yet applied to a vertex: Ingest and IngestAll block the caller —
	// parking the upstream spout — once this many are in flight. A crash
	// recovery resets the ledger (the discarded incarnation's in-flight
	// inputs die with it) and the journal replay re-acquires. 0 disables
	// admission control.
	MaxPendingInputs int
	// InboxHigh / InboxLow are the transport's per-endpoint inbox
	// watermarks (see transport.Options): at InboxHigh a receiver withdraws
	// delivery credit and senders park frames until it drains to InboxLow.
	// 0 leaves inboxes unbounded.
	InboxHigh int
	InboxLow  int
	// Seed drives all engine-internal randomness.
	Seed int64
	// compactEvery overrides defaultCompactEvery for a main loop (0 = the
	// constant). Only tests set it, to compact more often.
	compactEvery int64
	// Obs, when non-nil, attaches the loop to an observability hub: protocol
	// counters and frontier gauges register under per-loop labels, sampled
	// deltas and watched vertices record spans in the hub's tracer, and the
	// loop contributes a /statusz section. Branch loops forked from an
	// observed main loop inherit only the tracer (see attachObs): they are
	// too short-lived to scrape, and per-query collector registration would
	// dominate the fork fast path.
	Obs *obs.Hub
	// branchObs is set by ForkBranch on branch configs: the parent main
	// loop's pooled aggregate the branch joins instead of registering its
	// own metric families (see observe.go).
	branchObs *branchObs

	// maxRestarts and restartWindow override the quarantine constants
	// defaultMaxRestarts and defaultRestartWindow (0 = the default). Only
	// tests set them, for a small restart budget that reaches quarantine.
	maxRestarts   int
	restartWindow time.Duration

	// Ablation switches (benchmarking only; both default off = optimized).

	// DisablePrepareSkip makes vertices at the delay cap run the prepare
	// phase anyway (the paper's Section 4.4 optimization turned off).
	DisablePrepareSkip bool
	// DisableJournalPrune keeps every committed input in the fork journal
	// instead of pruning entries below the terminated frontier.
	DisableJournalPrune bool
}

// Defaults of the configuration values only tests override.
const (
	// defaultCompactEvery makes a main loop's master compact the store every
	// 64 terminated iterations, dropping versions superseded below the
	// frontier (forks always happen at or above it, so they are
	// unreachable).
	defaultCompactEvery = 64
	// defaultMaxRestarts is how many times one processor may crash within
	// defaultRestartWindow before the restart moves its range to a spare or
	// the least-loaded survivor and quarantines its slot.
	defaultMaxRestarts = 5
	// defaultRestartWindow is the sliding window restarts are counted over
	// for quarantine.
	defaultRestartWindow = time.Minute
)

func (c *Config) validate() error {
	if c.Processors < 1 {
		return errors.New("engine: Processors must be >= 1")
	}
	if c.DelayBound < 1 {
		return errors.New("engine: DelayBound must be >= 1")
	}
	if c.MaxProcessors == 0 {
		c.MaxProcessors = c.Processors
	}
	if c.MaxProcessors < c.Processors {
		return errors.New("engine: MaxProcessors must be 0 or >= Processors")
	}
	if c.Store == nil {
		return errors.New("engine: Store is required")
	}
	if c.snapshot != nil && c.snapshot.Handle == nil {
		return errors.New("engine: Snapshot requires a Handle")
	}
	if (c.Program == nil) == (c.Delta == nil) {
		return errors.New("engine: exactly one of Program and Delta is required")
	}
	if c.Partition == nil {
		c.Partition = func(id stream.VertexID, n int) int { return int(id % stream.VertexID(n)) }
	}
	if c.compactEvery == 0 && c.Kind == MainLoop {
		c.compactEvery = defaultCompactEvery
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = 64
	} else if c.MaxBatch < 1 {
		c.MaxBatch = 1
	}
	if c.Wire == nil && c.ResendAfter != 0 {
		return errors.New("engine: ResendAfter requires Wire (an in-process frame cannot be lost)")
	}
	if c.InboxHigh > 0 && (c.InboxLow <= 0 || c.InboxLow >= c.InboxHigh) {
		c.InboxLow = c.InboxHigh / 2
	}
	if c.maxRestarts < 1 {
		c.maxRestarts = defaultMaxRestarts
	}
	if c.restartWindow <= 0 {
		c.restartWindow = defaultRestartWindow
	}
	return nil
}

// IterationRecord is the master's log entry for one terminated iteration.
type IterationRecord struct {
	Iteration int64
	// At is the wall-clock offset from engine start when the iteration's
	// termination was announced.
	At time.Duration
	// Commits is the number of vertex updates committed in the iteration.
	Commits int64
	// Progress is the iteration's aggregated ReportProgress value.
	Progress float64
}

// iterLogCap bounds the master's IterationLog. A delta loop under saturating
// churn terminates thousands of iterations a second, so an unbounded log
// grows by hundreds of megabytes an hour; the ring keeps the newest 65 536
// records (2 MiB).
const iterLogCap = 1 << 16

// iterRing holds the newest max iteration records.
type iterRing struct {
	buf  []IterationRecord
	max  int
	next int // once buf is full: the oldest record, overwritten next
}

func (r *iterRing) add(rec IterationRecord) {
	if len(r.buf) < r.max {
		r.buf = append(r.buf, rec)
		return
	}
	r.buf[r.next] = rec
	r.next = (r.next + 1) % r.max
}

// records returns a copy of the retained records, oldest first.
func (r *iterRing) records() []IterationRecord {
	out := make([]IterationRecord, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}

// Stats are the engine's live counters.
type Stats struct {
	Commits     atomic.Int64
	UpdateMsgs  atomic.Int64
	PrepareMsgs atomic.Int64
	AckMsgs     atomic.Int64
	InputMsgs   atomic.Int64
	Emits       atomic.Int64
	// Coalesced counts update messages merged into a newer update for the
	// same (producer, consumer) pair before leaving the processor.
	Coalesced atomic.Int64
	// LocalMsgs counts vertex messages whose owner was the sending processor:
	// dispatched from its own window, never handed to the transport.
	LocalMsgs atomic.Int64
	// SnapshotLoads counts stored versions decoded to bootstrap a vertex.
	SnapshotLoads atomic.Int64
	// Delta-mode counters (static zero in value mode). DeltaMerged counts
	// deltas accumulated into an already-pending slot, DeltaSkipped counts
	// sub-threshold pendings parked instead of scheduled (selective
	// activation), DeltaApplied counts pendings consumed by commits.
	DeltaMerged  atomic.Int64
	DeltaSkipped atomic.Int64
	DeltaApplied atomic.Int64
}

// statCounts is a processor's receive window of Stats increments (its
// ledger's), added to the shared counters at each publish.
type statCounts struct {
	Commits, UpdateMsgs, PrepareMsgs, AckMsgs, InputMsgs, Emits int64
	Coalesced, LocalMsgs, SnapshotLoads                         int64
	DeltaMerged, DeltaSkipped, DeltaApplied                     int64
}

// add moves c into the counters and zeroes it.
func (s *Stats) add(c *statCounts) {
	for _, f := range [...]struct {
		n   int64
		dst *atomic.Int64
	}{
		{c.Commits, &s.Commits}, {c.UpdateMsgs, &s.UpdateMsgs}, {c.PrepareMsgs, &s.PrepareMsgs},
		{c.AckMsgs, &s.AckMsgs}, {c.InputMsgs, &s.InputMsgs}, {c.Emits, &s.Emits},
		{c.Coalesced, &s.Coalesced}, {c.LocalMsgs, &s.LocalMsgs}, {c.SnapshotLoads, &s.SnapshotLoads},
		{c.DeltaMerged, &s.DeltaMerged}, {c.DeltaSkipped, &s.DeltaSkipped}, {c.DeltaApplied, &s.DeltaApplied},
	} {
		if f.n != 0 {
			f.dst.Add(f.n)
		}
	}
	*c = statCounts{}
}

// StatsSnapshot is a point-in-time copy of the counters.
type StatsSnapshot struct {
	Commits, UpdateMsgs, PrepareMsgs, AckMsgs, InputMsgs int64
	Emits                                                int64
	// Coalesced is the number of update messages merged away before send;
	// UpdateMsgs counts updates as produced, so the wire carried
	// UpdateMsgs − Coalesced of them.
	Coalesced int64
	// LocalMsgs is the number of vertex messages a processor sent to its own
	// vertices; they skip the transport, so over a settled run the vertex
	// messages sent equal TransportDelivered (less control traffic) plus it.
	LocalMsgs int64
	// SnapshotLoads is the number of stored versions a branch or restarted
	// loop decoded to bootstrap its vertices. A value-mode loop reads one only
	// when a vertex first needs its state, so it stays below the hosted count
	// (PartitionLoads) by the vertices that only answered PREPAREs or absorbed
	// valueless COMMITs.
	SnapshotLoads                                      int64
	TransportSent, TransportDelivered, TransportResent int64
	// TransportPayloads counts messages inside first-transmission frames, so
	// TransportPayloads/(TransportSent−TransportResent) is the average batch
	// size and TransportAckFrames/TransportPayloads the wire ledger's ack
	// suppression ratio. TransportResent and TransportAckFrames stay zero
	// without Config.Wire.
	TransportPayloads, TransportAckFrames int64
	// TransportDeadLetters is always zero: the transport no longer abandons
	// a frame. It stays until the benchmark harness stops reading it.
	TransportDeadLetters int64
	// Wire counters (all zero without Config.Wire): frames and bytes
	// serialized onto / decoded off the socket substrate, supervised
	// reconnects after dead connections, and corrupt frames caught by the
	// CRC (checksum mismatches) or the framing layer (torn frames) — caught
	// frames drop their connection and are never delivered.
	WireTxFrames, WireRxFrames           int64
	WireTxBytes, WireRxBytes             int64
	WireReconnects                       int64
	WireChecksumFailures, WireTornFrames int64
	// Delta-mode counters (all zero in value mode): deltas merged into
	// pending slots, sub-threshold activations skipped, pendings consumed
	// by commits, and the current summed activation-queue depth.
	DeltaMerged, DeltaSkipped, DeltaApplied int64
	DeltaQueueDepth                         int64
	Notified                                int64
	// Frontier is the smallest iteration still holding an obligation token.
	Frontier int64
	// PendingPrepares is the number of PREPARE messages awaiting their ACK.
	PendingPrepares int64
	// Crashes and Recoveries count injected crashes and completed
	// checkpoint restarts; Quarantined is the number of processors removed
	// from rotation after exceeding defaultMaxRestarts.
	Crashes, Recoveries, Quarantined int64
	// Generation counts loop incarnations (0 = never recovered).
	Generation int64
}

// incarnation is one generation of the loop's running topology: network,
// tracker, one processor per plan slot, and control endpoints. A checkpoint
// restart tears it down wholesale and builds the next one from the last
// terminated-iteration checkpoint; everything durable (store, journal,
// counters, plan) lives on the Engine and survives. The Lamport clocks are
// the processors' own: an incarnation's prepares die with it.
type incarnation struct {
	gen     int
	net     *transport.Network
	tracker *Tracker
	procs   []*processor
	masterE *transport.Endpoint
	ingestE *transport.Endpoint
	// outboxes recycles the ingest-side windows, one per slot: Ingest,
	// IngestAll, Activate and AdoptBranch callers run concurrently, so each
	// call fills an outbox of its own and ships it through ingestE.
	outboxes sync.Pool

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	// ready is closed once the incarnation is fully bootstrapped (checkpoint
	// re-activation and residual replay done). A crash recovery waits for it
	// before it tears the incarnation down (see recoverRun).
	ready     chan struct{}
	readyOnce sync.Once

	masterCrashed atomic.Bool
	// down is closed by the first crash of a member (CrashProcessor,
	// CrashMaster; see Engine.markDown): a repartition waiting for rest gives
	// up on it.
	down     chan struct{}
	downOnce sync.Once
}

func (inc *incarnation) stopNow() {
	inc.stopOnce.Do(func() { close(inc.stop) })
}

func (inc *incarnation) markReady() {
	inc.readyOnce.Do(func() { close(inc.ready) })
}

// crashed reports whether a processor or the master of inc crashed: its
// quiescence then proves nothing, since the restart that replaces it
// re-activates the whole checkpoint.
func (inc *incarnation) crashed() bool {
	if inc.masterCrashed.Load() {
		return true
	}
	for _, p := range inc.procs {
		if p.ep.Crashed() {
			return true
		}
	}
	return false
}

// Engine runs one loop (main or branch) of the iterative computation.
type Engine struct {
	// genMu guards the current incarnation, cfg's snapshot and
	// startIteration, slow's width and the restart log, and serializes plan
	// publishes. Processor goroutines never take it: they capture their
	// incarnation's tracker and snapshot at construction, so a restart
	// holding the write lock can wait for them to drain without deadlock.
	genMu      sync.RWMutex
	cfg        Config
	inc        *incarnation
	restartLog map[int][]time.Time // per-processor restart times
	stopped    bool

	journal  *inputJournal // main loops only
	stats    Stats
	netStats *transport.Stats // shared across incarnations
	start    time.Time
	created  time.Time

	// Flow control. ingestGate (nil when MaxPendingInputs == 0) is the
	// admission ledger: Ingest acquires before touching the incarnation —
	// blocking under genMu would deadlock the recovery that needs the write
	// lock to unwedge the very consumer being waited on — and applyWork
	// releases as inputs land on vertices. slow is per-slot injected commit
	// latency (FaultSlowProcessor); it survives incarnations so a recovered
	// processor stays slow.
	ingestGate *flow.Gate
	slow       []atomic.Int64

	// Partition plans (plan.go, elastic.go). plan is the current epoch,
	// read atomically by every route call and replaced only by a checkpoint
	// restart; it lives on the Engine so plans survive restarts. admit is the
	// repartition stop: Ingest, IngestTraced and each IngestAll chunk hold it
	// shared, a repartition exclusively from the stop to the reopening.
	plan       atomic.Pointer[PartitionPlan]
	admit      sync.RWMutex
	migrations atomic.Int64
	migAborts  atomic.Int64
	migDurHist *obs.StreamHist // the admission stall of each repartition

	// Recovery counters and event log.
	crashes     atomic.Int64
	recoveries  atomic.Int64
	recMu       sync.Mutex
	recoveryLog []RecoveryEvent

	// Fault injection. planMu guards the armed chaos schedule; wireFaults is
	// one shared fault state wrapping every wire connection of every
	// incarnation (nil without Config.Wire), so frame loss survives crash
	// recoveries; lastWireDown rate-limits wire-down recovery events.
	planMu        sync.Mutex
	pendingFaults []Fault
	wireFaults    *transport.WireFaults
	lastWireDown  atomic.Int64

	// Observability (nil / zero unless Config.Obs was set).
	obsScope        *obs.Scope
	obsDetach       func()
	spans           *trace.Tracer
	pendingPrepares atomic.Int64
	iterCommitsHist *obs.StreamHist
	advanceGapHist  *obs.StreamHist
	mttrHist        *obs.StreamHist
	wireFlushHist   *obs.StreamHist
	lastAdvance     time.Time // master goroutine only

	// branchObs pools the branch-loop metric series (main loops own one;
	// branches register into their parent's instead of creating families).
	branchObs *branchObs

	// traceCommits holds traced commits awaiting frontier coverage: when the
	// watermark advances past a commit's iteration, its trace records the
	// "frontier" stage. Bounded; oldest entries drop under pressure.
	traceCommitMu sync.Mutex
	traceCommits  []tracedCommit

	iterMu   sync.Mutex
	iterLog  iterRing
	haltSent bool

	quiet      atomic.Pointer[quietRecord]   // the master's latest quiescence
	masterHold atomic.Pointer[chan struct{}] // set while paused; ResumeMaster closes it

	done     chan struct{}
	doneOnce sync.Once
	stopOnce sync.Once
	supWG    sync.WaitGroup
	started  atomic.Bool

	// forks counts branches forked off this loop and not yet stopped.
	forks atomic.Int64

	// onStop runs after the engine stops (branch engines release their
	// parent's fork pin here).
	onStop func()
	// forkJournalSeq is, on a branch engine, the parent's input-journal
	// sequence at fork time; AdoptBranch uses it to detect inputs that
	// arrived after the fork (Section 5.2's merge precondition).
	forkJournalSeq uint64
}

// New assembles an engine; call Start to run it.
func New(cfg Config) (*Engine, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:        cfg,
		netStats:   &transport.Stats{},
		restartLog: make(map[int][]time.Time),
		created:    time.Now(),
		done:       make(chan struct{}),
		slow:       make([]atomic.Int64, cfg.MaxProcessors),
		iterLog:    iterRing{max: iterLogCap},
	}
	e.plan.Store(basePlan(cfg.Processors, cfg.MaxProcessors))
	e.quiet.Store(&quietRecord{gen: -1, wake: make(chan struct{})})
	if cfg.MaxPendingInputs > 0 {
		e.ingestGate = flow.NewGate(cfg.MaxPendingInputs, 0)
	}
	if cfg.Kind == MainLoop {
		e.journal = newInputJournal()
	}
	if cfg.Wire != nil {
		e.wireFaults = transport.NewWireFaults(cfg.Seed ^ 0x5719e)
	}
	if cfg.Obs != nil {
		e.spans = cfg.Obs.Spans // before the processors: they cache it
	}
	e.inc = e.buildIncarnation(0)
	if cfg.Obs != nil {
		e.attachObs(cfg.Obs)
	}
	return e, nil
}

// Node-ID layout: processor slots occupy 0..slots-1 (spares idle until a
// plan routes a range to them); the control endpoints sit at fixed IDs far
// above any slot count, so a restart that grows the slots never moves them.
const (
	masterNode transport.NodeID = 1<<30 + iota
	ingestNode
)

// buildIncarnation assembles generation gen's topology from the engine's
// configuration and plan, one processor per slot. Caller holds genMu (or is
// New).
func (e *Engine) buildIncarnation(gen int) *incarnation {
	slots := len(e.plan.Load().Active)
	inc := &incarnation{gen: gen, stop: make(chan struct{}), ready: make(chan struct{}), down: make(chan struct{})}
	inc.outboxes.New = func() any { return newOutbox(slots) }
	var wire *transport.WireConfig
	if e.cfg.Wire != nil {
		wire = e.buildWire(gen)
	}
	inc.net = transport.NewNetwork(transport.Options{
		ResendAfter: e.cfg.ResendAfter,
		InboxHigh:   e.cfg.InboxHigh,
		InboxLow:    e.cfg.InboxLow,
		DropSeed:    e.cfg.Seed,
		Stats:       e.netStats,
		Spans:       e.spans,
		Wire:        wire,
	})
	inc.tracker = NewTracker(e.cfg.startIteration)
	// Every slot runs a processor goroutine: spares (and quarantined slots)
	// idle on Recv owning nothing, so scaling out never has to mutate a live
	// incarnation's topology.
	inc.procs = make([]*processor, slots)
	for i := range inc.procs {
		inc.procs[i] = newProcessor(i, slots, e, inc.net.Register(transport.NodeID(i)), inc.tracker)
	}
	inc.masterE = inc.net.Register(masterNode)
	inc.ingestE = inc.net.Register(ingestNode)
	return inc
}

// owner resolves a vertex to its processor slot under the current plan.
func (e *Engine) owner(id stream.VertexID) transport.NodeID {
	return transport.NodeID(e.plan.Load().Owner(id, e.cfg.Partition))
}

// startIncarnation launches an incarnation's goroutines: its processors and
// its master.
func (e *Engine) startIncarnation(inc *incarnation) {
	for _, p := range inc.procs {
		inc.wg.Add(1)
		go func(p *processor) {
			defer inc.wg.Done()
			p.run()
		}(p)
	}
	inc.wg.Add(1)
	go func() {
		defer inc.wg.Done()
		e.masterRun(inc)
	}()
}

// cur returns the current incarnation (a snapshot: a recovery may replace it
// at any time; stale incarnations stay safe to poke, their tracker and
// endpoints are simply inert).
func (e *Engine) cur() *incarnation {
	e.genMu.RLock()
	defer e.genMu.RUnlock()
	return e.inc
}

// snapshot returns the engine's current snapshot source (recovery rewrites
// it).
func (e *Engine) snapshot() *SnapshotSource {
	e.genMu.RLock()
	defer e.genMu.RUnlock()
	return e.cfg.snapshot
}

// Start launches the processors and the master. It may be called once.
func (e *Engine) Start() {
	if !e.started.CompareAndSwap(false, true) {
		panic("engine: Start called twice")
	}
	e.start = time.Now()
	inc := e.cur()
	e.startIncarnation(inc)
	inc.markReady()
}

// Ingest routes one external tuple into the loop. It acquires the input's
// obligation token before returning, so a subsequent WaitQuiesce cannot miss
// the pending work. Holding the incarnation read lock across the acquire and
// the send keeps the input atomic with respect to recovery: either it lands
// in the old incarnation (and the journal replays it) or in the new one.
// While a repartition holds the stop, the call waits for it.
func (e *Engine) Ingest(t stream.Tuple) {
	e.IngestTraced(t, trace.Context{})
}

// IngestTraced is Ingest for deltas that already carry a span context (a
// traced spout hands its context over here, closing the "spout" stage). A
// zero context makes the engine the trace head: the head-based sampling
// decision happens here, once per delta.
func (e *Engine) IngestTraced(t stream.Tuple, ctx trace.Context) {
	traceOn := e.spans.Enabled()
	if traceOn {
		now := e.spans.Now()
		if ctx.Trace == 0 {
			ctx = e.spans.Begin(now)
		} else if ctx.Traced() {
			// Duration since the spout stamped the context = the spout stage
			// (the feed's pull to this ingest entry).
			ctx = e.spans.Stage(ctx, trace.StageSpout, uint64(e.cfg.LoopID), uint64(routeVertex(t)), 0, now)
		}
	}
	e.admit.RLock()
	defer e.admit.RUnlock()
	if g := e.ingestGate; g != nil {
		if traceOn && ctx.Traced() {
			g.Acquire() // before genMu: see the ingestGate field comment
			ctx = e.spans.Stage(ctx, trace.StageGate, uint64(e.cfg.LoopID), uint64(routeVertex(t)), 0, e.spans.Now())
		} else {
			g.Acquire()
		}
	}
	e.genMu.RLock()
	defer e.genMu.RUnlock()
	inc := e.inc
	tok := inc.tracker.AcquireFloor(0)
	m := msgInput{Tuple: t, Token: tok, Ctx: ctx}
	if e.journal != nil {
		m.JSeq, m.HasJSeq = e.journal.Ingested(t), true
	}
	out := inc.ingestOut()
	out.win[e.owner(routeVertex(t))].addInput(m)
	e.ingestShip(inc, out)
}

// ingestOut returns an empty outbox for one ingest-side call to fill.
func (inc *incarnation) ingestOut() *outbox { return inc.outboxes.Get().(*outbox) }

// ingestShip sends what an ingest-side call queued in out through inc's
// ingest endpoint and recycles the outbox.
func (e *Engine) ingestShip(inc *incarnation, out *outbox) {
	out.ship(inc.ingestE, -1, e.cfg.MaxBatch, e.spans, uint64(e.cfg.LoopID))
	inc.outboxes.Put(out)
}

// IngestAll ingests a tuple slice in order, in admission-gate-sized chunks:
// each chunk rides under one incarnation lock and one outbox ship, in a
// handful of frames of up to MaxBatch inputs instead of one frame per tuple.
// With MaxPendingInputs set the call blocks — parking the upstream source —
// whenever the loop already holds a full window of unapplied inputs. A
// repartition's stop holds the call between two chunks.
func (e *Engine) IngestAll(ts []stream.Tuple) { e.ingestAll(ts, true) }

// ingestAll is IngestAll; stop false skips the repartition stop, for the
// restart's own journal replay, which a repartition may be waiting on.
func (e *Engine) ingestAll(ts []stream.Tuple, stop bool) {
	for len(ts) > 0 {
		if stop {
			e.admit.RLock()
		}
		n := len(ts)
		if e.ingestGate != nil {
			n = e.ingestGate.AcquireUpTo(n)
		}
		e.ingestChunk(ts[:n])
		if stop {
			e.admit.RUnlock()
		}
		ts = ts[n:]
	}
}

// ingestChunk sends one pre-admitted slice of tuples into the loop.
func (e *Engine) ingestChunk(ts []stream.Tuple) {
	traceOn := e.spans.Enabled()
	var now int64
	if traceOn {
		now = e.spans.Now() // one clock read per chunk keeps the hot path cheap
	}
	e.genMu.RLock()
	defer e.genMu.RUnlock()
	inc := e.inc
	// One tracker call and one journal call cover the chunk: the tokens all
	// sit at the current frontier and the sequences are consecutive.
	m := msgInput{Token: inc.tracker.AcquireFloorN(0, len(ts))}
	if e.journal != nil {
		m.JSeq, m.HasJSeq = e.journal.Ingested(ts...), true
	}
	out := inc.ingestOut()
	for _, t := range ts {
		m.Tuple = t
		if traceOn {
			m.Ctx = e.spans.Begin(now)
		}
		out.win[e.owner(routeVertex(t))].addInput(m)
		m.JSeq++
	}
	e.ingestShip(inc, out)
}

// Activate re-activates vertices: each becomes dirty and re-scatters its
// current state. Branch loops are seeded this way; recovery re-activates
// snapshot vertices.
func (e *Engine) Activate(ids ...stream.VertexID) {
	e.genMu.RLock()
	defer e.genMu.RUnlock()
	inc := e.inc
	tok := inc.tracker.AcquireFloorN(0, len(ids))
	out := inc.ingestOut()
	for _, id := range ids {
		out.win[e.owner(id)].addActivate(msgActivate{To: id, Token: tok})
	}
	e.ingestShip(inc, out)
}

// quietRecord is one quiescence the master published: incarnation gen had no
// obligation left once its tracker had counted acquired acquisitions, and the
// master had then announced every iteration that ever held a token —
// flushed, logged, traced, pruned, compacted and broadcast. Records only move
// forward (gen, then acquired); wake is closed when the next one replaces it.
type quietRecord struct {
	gen      int
	acquired int64
	wake     chan struct{}
}

// publishQuiet replaces the quiescence record and wakes its waiters. Master
// goroutine only, after the advance is fully recorded.
func (e *Engine) publishQuiet(inc *incarnation, acquired int64) {
	close(e.quiet.Swap(&quietRecord{gen: inc.gen, acquired: acquired, wake: make(chan struct{})}).wake)
}

// atRest reports whether inc's master has published quiescence and nothing
// was acquired since: no work is pending and every iteration that ran is
// announced, so the last terminated iteration is the loop's fixed point.
func (e *Engine) atRest(inc *incarnation) bool {
	r := e.quiet.Load()
	return r.gen == inc.gen && r.acquired == inc.tracker.Acquired()
}

// masterRun is the master node of one incarnation: it advances the iteration
// frontier, flushes checkpoints, publishes termination notifications, records
// statistics, fires the fault plan's iteration faults, and detects
// convergence. A crashed master (CrashMaster) simply exits; the crash has
// already started the restart that replaces it.
func (e *Engine) masterRun(inc *incarnation) {
	for {
		// A paused master (Figure 8c) stops advancing the frontier; the
		// tracker keeps accumulating and the announcement happens wholesale
		// after it resumes.
		for hold := e.masterHold.Load(); hold != nil; hold = e.masterHold.Load() {
			select {
			case <-inc.stop:
				return
			case <-*hold:
			}
		}
		if inc.masterCrashed.Load() {
			return
		}
		from, to, acquired, quiesced, ok := inc.tracker.Advance()
		if !ok {
			return
		}
		if inc.masterCrashed.Load() {
			return
		}
		if to >= from {
			// Flush before announcing: a terminated iteration is a
			// checkpoint (Section 5.3).
			if err := e.cfg.Store.Flush(e.cfg.LoopID, to); err != nil {
				panic(fmt.Sprintf("engine: checkpoint flush: %v", err))
			}
			at := time.Since(e.start)
			e.iterMu.Lock()
			for k := from; k <= to; k++ {
				commits, progress := inc.tracker.IterStats(k)
				e.iterLog.add(IterationRecord{Iteration: k, At: at, Commits: commits, Progress: progress})
				if e.iterCommitsHist != nil {
					e.iterCommitsHist.Observe(float64(commits))
				}
			}
			e.iterMu.Unlock()
			e.observeAdvance(to)
			inc.tracker.DropStatsThrough(to)
			if e.journal != nil && !e.cfg.DisableJournalPrune {
				e.journal.Prune(to)
			}
			if n := e.cfg.compactEvery; n > 0 && to/n > (from-1)/n {
				if err := e.cfg.Store.Compact(e.cfg.LoopID, to); err != nil {
					panic(fmt.Sprintf("engine: compact store: %v", err))
				}
			}
			e.broadcast(inc, msgFrontier{Notified: to})
			e.fireDueFaults(to)
		}
		if !quiesced {
			continue
		}
		e.publishQuiet(inc, acquired)
		if e.cfg.Kind == BranchLoop {
			// Frozen input and no obligations left: the branch converged.
			e.halt(inc)
			return
		}
	}
}

// observeAdvance records one frontier advance with the hub: the
// inter-advance gap histogram and the frontier spans of the traced commits
// it covers. Master goroutine only.
func (e *Engine) observeAdvance(to int64) {
	if e.advanceGapHist != nil {
		now := time.Now()
		if !e.lastAdvance.IsZero() {
			e.advanceGapHist.Observe(now.Sub(e.lastAdvance).Seconds())
		}
		e.lastAdvance = now
	}
	e.traceFrontier(to)
}

// tracedCommit is a sampled commit awaiting coverage by the iteration
// frontier; its trace's "frontier" stage is the commit-to-watermark latency
// — the freshness cost the paper's progress frontier puts a bound on.
type tracedCommit struct {
	ctx  trace.Context
	iter int64
}

// maxTracedCommits bounds the pending list; at the cap the oldest entry is
// dropped (its trace simply lacks a frontier span).
const maxTracedCommits = 512

// noteTracedCommit registers a traced commit for frontier attribution.
// Called by processors only for sampled contexts.
func (e *Engine) noteTracedCommit(ctx trace.Context, iter int64) {
	e.traceCommitMu.Lock()
	if len(e.traceCommits) >= maxTracedCommits {
		e.traceCommits = append(e.traceCommits[:0], e.traceCommits[1:]...)
	}
	e.traceCommits = append(e.traceCommits, tracedCommit{ctx: ctx, iter: iter})
	e.traceCommitMu.Unlock()
}

// traceFrontier closes the "frontier" stage of every traced commit the
// advanced watermark now covers.
func (e *Engine) traceFrontier(to int64) {
	if !e.spans.Enabled() {
		return
	}
	e.traceCommitMu.Lock()
	var covered []tracedCommit
	kept := e.traceCommits[:0]
	for _, tc := range e.traceCommits {
		if tc.iter <= to {
			covered = append(covered, tc)
		} else {
			kept = append(kept, tc)
		}
	}
	e.traceCommits = kept
	e.traceCommitMu.Unlock()
	if len(covered) == 0 {
		return
	}
	now := e.spans.Now()
	for _, tc := range covered {
		e.spans.StageIter(tc.ctx, trace.StageFrontier, uint64(e.cfg.LoopID), trace.NoVertex, 0, tc.iter, now)
	}
}

// broadcast sends a control message to every processor.
func (e *Engine) broadcast(inc *incarnation, payload any) {
	for i := range inc.procs {
		inc.masterE.Send(transport.NodeID(i), payload)
	}
}

// halt stops the processors and signals completion.
func (e *Engine) halt(inc *incarnation) {
	e.iterMu.Lock()
	if !e.haltSent {
		e.haltSent = true
		e.iterMu.Unlock()
		e.broadcast(inc, msgHalt{})
	} else {
		e.iterMu.Unlock()
	}
	e.doneOnce.Do(func() { close(e.done) })
}

// Done is closed when a branch loop converges (quiescence under frozen
// input) or the engine stops.
func (e *Engine) Done() <-chan struct{} { return e.done }

// WaitDone blocks until the loop completes or the timeout expires.
func (e *Engine) WaitDone(timeout time.Duration) error {
	select {
	case <-e.done:
		return nil
	case <-time.After(timeout):
		return fmt.Errorf("engine: loop %d did not complete within %v", e.cfg.LoopID, timeout)
	}
}

// WaitQuiesce blocks until the master has published a quiescence record
// covering every obligation acquired before the call, or the timeout expires:
// every input is then propagated and every iteration that ran is announced,
// checkpointed, logged and traced. It follows the live incarnation — the
// record must come from one with no crashed member, and a later
// incarnation's first record covers its restart's replay. Only the master
// publishes, so a paused master blocks the call until ResumeMaster unless a
// record already covers it (Quiesced is the instantaneous reading).
func (e *Engine) WaitQuiesce(timeout time.Duration) error {
	from := e.cur()
	target := from.tracker.Acquired()
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for {
		r := e.quiet.Load() // before the incarnation: a later publish closes r.wake
		if inc := e.cur(); r.gen == inc.gen && (r.gen > from.gen || r.acquired >= target) && !inc.crashed() {
			return nil
		}
		select {
		case <-r.wake:
		case <-timer.C:
			return fmt.Errorf("engine: loop %d did not quiesce within %v", e.cfg.LoopID, timeout)
		}
	}
}

// Stop tears the engine down. It is idempotent and safe to call on a
// completed engine.
func (e *Engine) Stop() {
	e.stopOnce.Do(func() {
		if e.ingestGate != nil {
			e.ingestGate.Close() // producers blocked in Ingest must exit
		}
		e.genMu.Lock()
		e.stopped = true
		inc := e.inc
		e.genMu.Unlock()
		inc.stopNow()
		inc.tracker.Close()
		e.broadcast(inc, msgHalt{})
		e.doneOnce.Do(func() { close(e.done) })
		for _, p := range inc.procs {
			p.setPaused(false) // a paused goroutine must wake to exit
		}
		inc.net.Close()
		inc.wg.Wait()
		e.supWG.Wait()
		if e.obsDetach != nil {
			e.obsDetach() // unregister per-loop series and status section
		}
		if e.onStop != nil {
			e.onStop()
		}
		// Drop the snapshot handle this engine reads through (every
		// checkpoint restart grabs one; for branches this doubles the onStop
		// release, which is idempotent).
		e.snapshot().release()
	})
}

// PinnedForks returns the number of branches forked off this loop and not
// yet stopped: snapshots of this loop still held by running branch loops or
// retained query results. Each holds a store pin, so compaction keeps the
// versions its fork iteration can observe; a nonzero count after every
// query closed indicates a leak.
func (e *Engine) PinnedForks() int { return int(e.forks.Load()) }

// ForkJournalSeq returns, on a branch engine, the parent main loop's
// input-journal sequence at fork time: the number of ingested inputs this
// branch's fixed point reflects.
func (e *Engine) ForkJournalSeq() uint64 { return e.forkJournalSeq }

// FlowSnapshot is a point-in-time view of the loop's backpressure state:
// the ingest admission ledger and the transport inbox watermark machinery.
type FlowSnapshot struct {
	// GateDepth / GateCapacity are the admission ledger: inputs admitted
	// but not yet applied, against MaxPendingInputs (both zero when
	// admission control is off). GatePeak is the high-water mark.
	// GateSaturated reports the gate is currently withholding credits
	// (producers park until the ledger drains to the low watermark), which
	// can hold with GateDepth below GateCapacity.
	GateDepth, GateCapacity, GatePeak int
	GateSaturated                     bool
	// GateWaits counts producer blocks at the admission gate; GateWaitTime
	// is their cumulative pause — how long sources were parked.
	GateWaits    int64
	GateWaitTime time.Duration
	// GateResets counts crash recoveries that discarded the ledger.
	GateResets int64
	// InboxMax / InboxTotal are the deepest and summed transport inbox
	// depths; StalledEndpoints and HeldFrames are the receivers currently
	// withholding credit and the frames senders have parked for them.
	InboxMax, InboxTotal         int
	StalledEndpoints, HeldFrames int
	// Stalls and FramesHeld are the cumulative transport counters.
	Stalls, FramesHeld int64
}

// FlowSnapshot captures the engine's current backpressure state.
func (e *Engine) FlowSnapshot() FlowSnapshot {
	var s FlowSnapshot
	if g := e.ingestGate; g != nil {
		s.GateDepth = g.Depth()
		s.GateCapacity = g.Capacity()
		s.GatePeak = g.Peak()
		s.GateSaturated = g.Saturated()
		s.GateWaits = g.Waits()
		s.GateWaitTime = g.WaitTime()
		s.GateResets = g.Resets()
	}
	s.InboxMax, s.InboxTotal, s.StalledEndpoints, s.HeldFrames = e.cur().net.QueueDepths()
	s.Stalls = e.netStats.Stalls.Load()
	s.FramesHeld = e.netStats.HeldFrames.Load()
	return s
}

// progLabel names the running program for metric labels and statusz: the
// value program's type in value mode, the delta program's in delta mode.
func (e *Engine) progLabel() string {
	if e.cfg.Delta != nil {
		return fmt.Sprintf("%T", e.cfg.Delta)
	}
	return fmt.Sprintf("%T", e.cfg.Program)
}

// execMode reports the execution mode for statusz.
func (e *Engine) execMode() string {
	if e.cfg.Delta != nil {
		return "delta"
	}
	return "value"
}

// SlowProcessor injects d of extra latency into every commit of processor i
// (0 clears it). Unlike Config.CommitDelay it can be toggled on a running
// engine and survives crash recoveries, which makes it the slow-consumer
// chaos primitive behind FaultSlowProcessor.
func (e *Engine) SlowProcessor(i int, d time.Duration) {
	e.genMu.RLock()
	defer e.genMu.RUnlock()
	if i >= 0 && i < len(e.slow) {
		e.slow[i].Store(int64(d))
	}
}

// Notified returns the highest terminated iteration.
func (e *Engine) Notified() int64 { return e.cur().tracker.Notified() }

// Quiesced reports whether the loop holds no obligation token at this
// instant. It is a raw reading, not the master's verdict: the frontier may
// not be announced yet, and a paused master never announces it (Figure 8c
// reads it for that reason). Use WaitQuiesce or Idle for the published
// record.
func (e *Engine) Quiesced() bool { return e.cur().tracker.TokenCount() == 0 }

// Generation returns the loop's incarnation number (0 = never recovered).
func (e *Engine) Generation() int {
	e.genMu.RLock()
	defer e.genMu.RUnlock()
	return e.inc.gen
}

// StatsSnapshot returns a copy of the live counters.
func (e *Engine) StatsSnapshot() StatsSnapshot {
	e.genMu.RLock()
	tracker := e.inc.tracker
	gen := e.inc.gen
	var queueDepth int64
	for _, p := range e.inc.procs {
		queueDepth += p.deltaDepth.Load()
	}
	e.genMu.RUnlock()
	return StatsSnapshot{
		DeltaMerged:          e.stats.DeltaMerged.Load(),
		DeltaSkipped:         e.stats.DeltaSkipped.Load(),
		DeltaApplied:         e.stats.DeltaApplied.Load(),
		DeltaQueueDepth:      queueDepth,
		Commits:              e.stats.Commits.Load(),
		UpdateMsgs:           e.stats.UpdateMsgs.Load(),
		PrepareMsgs:          e.stats.PrepareMsgs.Load(),
		AckMsgs:              e.stats.AckMsgs.Load(),
		InputMsgs:            e.stats.InputMsgs.Load(),
		Emits:                e.stats.Emits.Load(),
		Coalesced:            e.stats.Coalesced.Load(),
		LocalMsgs:            e.stats.LocalMsgs.Load(),
		SnapshotLoads:        e.stats.SnapshotLoads.Load(),
		TransportSent:        e.netStats.Sent.Load(),
		TransportDelivered:   e.netStats.Delivered.Load(),
		TransportResent:      e.netStats.Resent.Load(),
		TransportPayloads:    e.netStats.Payloads.Load(),
		TransportAckFrames:   e.netStats.AckFrames.Load(),
		WireTxFrames:         e.netStats.WireTxFrames.Load(),
		WireRxFrames:         e.netStats.WireRxFrames.Load(),
		WireTxBytes:          e.netStats.WireTxBytes.Load(),
		WireRxBytes:          e.netStats.WireRxBytes.Load(),
		WireReconnects:       e.netStats.WireReconnects.Load(),
		WireChecksumFailures: e.netStats.WireChecksumFailures.Load(),
		WireTornFrames:       e.netStats.WireTornFrames.Load(),
		Notified:             tracker.Notified(),
		Frontier:             tracker.Frontier(),
		PendingPrepares:      e.pendingPrepares.Load(),
		Crashes:              e.crashes.Load(),
		Recoveries:           e.recoveries.Load(),
		Quarantined:          int64(len(e.Quarantined())),
		Generation:           int64(gen),
	}
}

// IterationLog returns a copy of the per-iteration termination records in
// ascending iteration order: every record for a loop that terminated at most
// 65 536 iterations, else the newest 65 536.
func (e *Engine) IterationLog() []IterationRecord {
	e.iterMu.Lock()
	defer e.iterMu.Unlock()
	return e.iterLog.records()
}

// ReadState returns the freshest stored application state of a vertex at or
// below maxIter (use MaxInt64 for the newest). For a loop bootstrapped from
// a snapshot (branch loops, recovery), vertices the loop never committed
// fall back to the snapshot version — the branch's logical state is the
// snapshot overlaid with its own commits.
func (e *Engine) ReadState(id stream.VertexID, maxIter int64) (any, int64, error) {
	data, iter, err := e.cfg.Store.Latest(e.cfg.LoopID, id, maxIter)
	if snap := e.snapshot(); errors.Is(err, storage.ErrNotFound) && snap != nil {
		data, iter, err = snap.Handle.Latest(id, snap.UpTo)
	}
	if err != nil {
		return nil, 0, err
	}
	blob, err := decodeStored(id, data)
	if err != nil {
		return nil, 0, err
	}
	return blob.State, iter, nil
}

// decodeStored decodes a stored version of vertex id.
func decodeStored(id stream.VertexID, data []byte) (VertexBlob, error) {
	blob, err := StateCodec{}.DecodeBlob(data)
	if err != nil {
		return VertexBlob{}, fmt.Errorf("engine: stored version of vertex %d: %w", id, err)
	}
	return blob, nil
}

// ScanStates visits the freshest stored state of every vertex at or below
// maxIter in ascending vertex order, overlaying this loop's commits onto its
// snapshot source (if any).
func (e *Engine) ScanStates(maxIter int64, fn func(id stream.VertexID, iter int64, state any) error) error {
	return e.scanBlobs(maxIter, func(id stream.VertexID, iter int64, blob VertexBlob) error {
		return fn(id, iter, blob.State)
	})
}

// scanBlobs is ScanStates over the whole stored blob (state, targets and
// pending). It walks the overlay once and decodes each visited version once:
// both scans ascend by vertex, so this loop's commits (collected first) are
// merged into the snapshot's stream, shadowing the snapshot's version of
// every vertex the loop committed itself.
func (e *Engine) scanBlobs(maxIter int64, fn func(id stream.VertexID, iter int64, blob VertexBlob) error) error {
	var own []storage.Record
	if err := e.cfg.Store.Scan(e.cfg.LoopID, maxIter, func(r storage.Record) error {
		own = append(own, r)
		return nil
	}); err != nil {
		return err
	}
	visit := func(r storage.Record) error {
		blob, err := decodeStored(r.Vertex, r.Data)
		if err != nil {
			return err
		}
		return fn(r.Vertex, r.Iteration, blob)
	}
	if snap := e.snapshot(); snap != nil {
		if err := snap.Handle.Scan(snap.UpTo, func(r storage.Record) error {
			for ; len(own) > 0 && own[0].Vertex < r.Vertex; own = own[1:] {
				if err := visit(own[0]); err != nil {
					return err
				}
			}
			if len(own) > 0 && own[0].Vertex == r.Vertex {
				return nil // shadowed: the loop's own version is visited in its turn
			}
			return visit(r)
		}); err != nil {
			return err
		}
	}
	for _, r := range own {
		if err := visit(r); err != nil {
			return err
		}
	}
	return nil
}

// ForkSpec describes a consistent fork point of a running main loop.
type ForkSpec struct {
	// ForkIter is the iteration the snapshot is taken at (the frontier at
	// fork time).
	ForkIter int64
	// Seeds are the vertices whose effects are newer than the snapshot;
	// the branch re-activates them.
	Seeds []stream.VertexID
	// Residual are the gathered inputs not reflected in the snapshot; the
	// branch replays them.
	Residual []stream.Tuple
}

// forkLocked captures a fork specification at the current frontier: snapshot
// iteration, seed set and residual inputs (Section 5.2). The main loop keeps
// running; terminated iterations are immutable, which is what makes the
// snapshot consistent without a pause. Caller holds genMu.
func (e *Engine) forkLocked() ForkSpec {
	inc := e.inc
	// The record is read before the scans: if the loop was at rest here,
	// any activity the scans pick up afterwards stems from post-fork inputs,
	// which the fork instant may legitimately exclude.
	rest := e.atRest(inc)
	forkIter := inc.tracker.Notified()
	var seeds []stream.VertexID
	above := false
	for _, p := range inc.procs {
		s, a := p.forkScan(forkIter)
		seeds, above = append(seeds, s...), above || a
	}
	spec := ForkSpec{ForkIter: forkIter, Seeds: seeds}
	if e.journal != nil {
		spec.Residual = e.journal.Residual(forkIter)
	}
	// Fast path for forks from a main loop at rest: with every iteration
	// that ran announced, no commits above the fork iteration and no
	// residual inputs, the snapshot alone is the complete fixed point — the
	// branch needs no re-activation at all.
	if rest && !above && len(spec.Residual) == 0 {
		spec.Seeds = nil
	}
	return spec
}

// JournalSize returns the fork journal's (uncommitted, committed-retained)
// entry counts (main loops only; zeros otherwise).
func (e *Engine) JournalSize() (int, int) {
	if e.journal == nil {
		return 0, 0
	}
	return e.journal.Size()
}

// ForkBranch forks a branch loop from the current frontier (Section 5.2):
// it captures a ForkSpec, assembles a branch engine reading its initial
// vertex states from this loop's snapshot and writing to branchLoop, starts
// it, seeds it with the spec's activations, and replays the residual inputs.
// The branch signals Done when it converges. The caller owns the returned
// engine (Stop it after reading results). The branch runs on one processor
// whatever this loop's width. Override lets the caller tweak the branch
// configuration before launch (e.g. a different delay bound, or Processors
// to widen it); seed, when non-nil, runs extra activations under the
// branch's bootstrap guard — use it instead of post-fork Activate calls,
// which can race an empty branch's instant convergence.
func (e *Engine) ForkBranch(branchLoop storage.LoopID, override func(*Config), seed func(*Engine)) (*Engine, ForkSpec, error) {
	// Pin before capturing the spec so no compaction — the master's, the
	// store's background pass, or a direct Compact call — can drop versions
	// between the snapshot decision and the handle grab below. The pinned
	// iteration is at most the spec's fork iteration (the frontier only
	// advances), which keeps the pin conservative and safe.
	e.genMu.RLock()
	storePin := e.cfg.Store.Pin(e.cfg.LoopID, e.inc.tracker.Notified())
	e.forks.Add(1)
	forkSeq := e.journalSeq() // before the spec: conservative for merges
	spec := e.forkLocked()
	cfg := e.cfg
	e.genMu.RUnlock()
	// Chaos schedules may target the fork instant (crash mid-branch-fork).
	e.fireForkFaults()
	// The branch runs on one processor, without spares: its work is one
	// burst's cascade, so every PREPARE/ACK/UPDATE rides the processor's own
	// window instead of the transport and a goroutine hand-off. Only the
	// seeds, the residual inputs and the master's frontier notices still
	// cross the transport. Override widens it.
	cfg.Processors, cfg.MaxProcessors = 1, 0
	cfg.Kind = BranchLoop
	cfg.LoopID = branchLoop
	cfg.branchObs = e.branchObs
	// The branch reads the parent through an O(1) handle: the grab is safe
	// here, after the spec, because the pin above already clamps any
	// compaction below the fork iteration. From now on the branch reads an
	// immutable root instead of racing the parent's live tree.
	handle := cfg.Store.Snapshot(e.cfg.LoopID)
	cfg.snapshot = &SnapshotSource{UpTo: spec.ForkIter, Handle: handle}
	cfg.startIteration = 0
	// Branches are short-lived in-process scratch loops: they never ride the
	// wire even when the parent does (override can opt back in).
	cfg.Wire, cfg.ResendAfter = nil, 0
	if override != nil {
		override(&cfg)
	}
	unpin := func() {
		storePin()
		handle.Release()
		e.forks.Add(-1)
	}
	br, err := New(cfg)
	if err != nil {
		unpin()
		return nil, ForkSpec{}, err
	}
	// Keep the snapshot's versions alive in the parent store until the
	// branch is stopped (lazy snapshot reads happen throughout its life).
	br.onStop = unpin
	br.forkJournalSeq = forkSeq
	// Hold quiescence from before Start until the seeds are in: an empty
	// tracker looks quiescent, and a started master would halt the branch
	// before it had done any work.
	release := br.HoldQuiesce()
	br.Start()
	br.Activate(spec.Seeds...)
	br.IngestAll(spec.Residual)
	if seed != nil {
		seed(br)
	}
	release()
	return br, spec, nil
}

// HoldQuiesce acquires an obligation that keeps the loop from being
// considered quiescent (and a branch loop from converging) until the
// returned release function is called. Use it to bracket multi-step seeding.
func (e *Engine) HoldQuiesce() (release func()) {
	tracker := e.cur().tracker
	tok := tracker.AcquireFloor(0)
	var once sync.Once
	return func() { once.Do(func() { tracker.Release(tok) }) }
}

// ActivateStored re-activates every vertex present in the engine's snapshot
// source (checkpoint recovery: after restarting from the last terminated
// iteration, all vertices re-scatter so any work lost in the crash is
// recomputed).
func (e *Engine) ActivateStored() error {
	snap := e.snapshot()
	if snap == nil {
		return errors.New("engine: ActivateStored requires a snapshot source")
	}
	var ids []stream.VertexID
	if err := snap.Handle.Scan(snap.UpTo, func(r storage.Record) error {
		ids = append(ids, r.Vertex)
		return nil
	}); err != nil {
		return err
	}
	e.Activate(ids...)
	return nil
}

// PauseProcessor pauses processor i (Figure 8d's fault injection as a
// network partition): its partition stops updating while messages to it
// accumulate, and all in-memory state survives. Use CrashProcessor for true
// crash semantics.
func (e *Engine) PauseProcessor(i int) {
	if p := e.proc(i); p != nil {
		p.setPaused(true)
	}
}

// ResumeProcessor resumes a paused processor.
func (e *Engine) ResumeProcessor(i int) {
	if p := e.proc(i); p != nil {
		p.setPaused(false)
	}
}

// PauseMaster pauses the master (Figure 8c): termination notifications stop,
// so synchronous loops stall immediately and bounded-asynchronous loops run
// until the delay bound is exhausted. No quiescence is published while it is
// paused. State survives; use CrashMaster for true crash semantics.
func (e *Engine) PauseMaster() {
	hold := make(chan struct{})
	e.masterHold.CompareAndSwap(nil, &hold)
}

// ResumeMaster resumes a paused master.
func (e *Engine) ResumeMaster() {
	if hold := e.masterHold.Swap(nil); hold != nil {
		close(*hold)
	}
}

// proc returns processor i of the current incarnation (nil when out of
// range).
func (e *Engine) proc(i int) *processor {
	e.genMu.RLock()
	defer e.genMu.RUnlock()
	if i < 0 || i >= len(e.inc.procs) {
		return nil
	}
	return e.inc.procs[i]
}

// Config returns a copy of the engine's configuration.
func (e *Engine) Config() Config {
	e.genMu.RLock()
	defer e.genMu.RUnlock()
	return e.cfg
}
