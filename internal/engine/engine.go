package engine

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tornado/internal/delta"
	"tornado/internal/flow"
	"tornado/internal/lamport"
	"tornado/internal/metrics"
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
	Loop storage.LoopID
	UpTo int64
	// Handle, when non-nil, is a pinned point-in-time view of Loop captured
	// at fork/recovery time (storage.Snapshotter backends): snapshot reads
	// go through it instead of the live store, so no concurrent compaction,
	// truncation, or drop of the source loop can narrow what this engine
	// sees. Reads stay bounded by UpTo either way. The engine that owns the
	// source releases it on Stop.
	Handle storage.Snapshot
}

// latest reads the freshest snapshot version of vertex <= maxIter: through
// the pinned handle when present, else from the live store (whose Pin clamp
// is then the only thing standing between the read and a compaction).
func (s *SnapshotSource) latest(st storage.Store, vertex stream.VertexID, maxIter int64) ([]byte, int64, error) {
	if s.Handle != nil {
		return s.Handle.Latest(vertex, maxIter)
	}
	return st.Latest(s.Loop, vertex, maxIter)
}

// scan visits the freshest snapshot version <= maxIter of every vertex.
func (s *SnapshotSource) scan(st storage.Store, maxIter int64, fn func(storage.Record) error) error {
	if s.Handle != nil {
		return s.Handle.Scan(maxIter, fn)
	}
	return st.Scan(s.Loop, maxIter, fn)
}

// release drops the pinned handle, if any. Idempotent (handles are).
func (s *SnapshotSource) release() {
	if s != nil && s.Handle != nil {
		s.Handle.Release()
	}
}

// Config assembles an Engine.
type Config struct {
	// Processors is the number of processor goroutines the base partition
	// spreads vertices over (>= 1).
	Processors int
	// MaxProcessors is the slot ceiling elastic scaling may grow into
	// (default Processors — no spares). Slots Processors..MaxProcessors-1
	// run idle processor goroutines that own no vertices until a
	// hot-partition split migrates a range onto them (Migrate/ScaleOut).
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
	// Snapshot, when non-nil, bootstraps unseen vertices from another
	// loop's versions instead of Program.Init.
	Snapshot *SnapshotSource
	// StartIteration is the first iteration this loop may commit in
	// (default 0). A loop resuming in place over its own history (Reshard,
	// in-place recovery) starts above its last terminated iteration so new
	// versions supersede old ones.
	StartIteration int64
	// MaxIterations halts the loop once that many iterations terminated
	// (0 = unlimited).
	MaxIterations int64
	// Converge, when non-nil, is evaluated by the master for every
	// terminated iteration; returning true halts the loop.
	Converge func(iter, commits int64, progress float64) bool
	// Partition maps vertices to processors; defaults to modulo.
	Partition func(stream.VertexID, int) int
	// ResendAfter enables at-least-once delivery with the given
	// retransmission timeout (0 = trusted in-process channels).
	ResendAfter time.Duration
	// MaxResends caps transport retransmission attempts per frame; frames
	// exceeding it are dead-lettered (visible as dead_letters in /metrics).
	// 0 retries forever. Leave it 0 unless a supervisor is running: a
	// dead-lettered frame to a live processor leaks its obligation token,
	// which only a checkpoint recovery can reclaim.
	MaxResends int
	// MaxBatch caps a frame in messages: senders queue vertex messages for a
	// whole receive window, and at its end cut each destination's queue into
	// frames of at most this many. Default 64; 1 (or less) ships every
	// message as a frame of its own, on the same path.
	MaxBatch int
	// FlushInterval is the transport's latency backstop: buffered frames and
	// deferred acks older than this are shipped by a background tick even if
	// no protocol boundary flushed them (default 2ms when batching).
	FlushInterval time.Duration
	// CommitDelay, when non-nil, injects per-commit latency into a
	// processor (straggler and I/O-cost modelling in the experiments).
	CommitDelay func(proc int) time.Duration
	// Wire, when non-nil, runs the loop's message plane over a real socket
	// substrate (see WireSpec): every frame is serialized through the
	// CRC32-framed binary codec and crosses a supervised connection to the
	// process's own listener. Implies ResendAfter > 0 (defaulted to 5ms if
	// unset) — the wire sheds frames on reconnects and relies on the resend
	// ledger for recovery.
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
	// DelayBoundCeiling lets the overload controller raise the effective
	// delay bound B at runtime (SetDelayBound) up to this value: a larger B
	// lets processors run further ahead of termination notifications,
	// trading result staleness for ingest headroom. 0 pins B at DelayBound.
	DelayBoundCeiling int64
	// Seed drives all engine-internal randomness.
	Seed int64
	// CompactEvery makes the master compact the store every N terminated
	// iterations, dropping versions superseded below the frontier (forks
	// always happen at or above it, so they are unreachable). 0 disables
	// compaction; the default for main loops is 64.
	CompactEvery int64
	// Obs, when non-nil, attaches the loop to an observability hub: protocol
	// counters and frontier gauges register under per-loop labels, the
	// three-phase protocol flows events into the hub's tracer, and the loop
	// contributes a /statusz section. Branch loops forked from an observed
	// main loop inherit only the tracer (see attachObs): they are too
	// short-lived to scrape, and per-query collector registration would
	// dominate the fork fast path.
	Obs *obs.Hub
	// branchObs is set by ForkBranch on branch configs: the parent main
	// loop's pooled aggregate the branch joins instead of registering its
	// own metric families (see observe.go).
	branchObs *branchObs

	// Supervision (main loops only; all zero = no supervisor).

	// HeartbeatInterval makes every processor and the master send liveness
	// beats to a supervisor at this interval; the supervisor restarts the
	// loop from the last terminated-iteration checkpoint when beats stop.
	// 0 disables supervision (crashes must be recovered manually with
	// RecoverFromCheckpoint).
	HeartbeatInterval time.Duration
	// SuspectAfter is how many consecutive missed beats declare a node dead
	// (default 3).
	SuspectAfter int
	// MaxRestarts is how many times one processor may crash within
	// RestartWindow before it is quarantined and its partition reassigned
	// to the survivors (default 5).
	MaxRestarts int
	// RestartWindow is the sliding window for MaxRestarts (default 1m).
	RestartWindow time.Duration
	// RestartBackoff is the base of the exponential restart backoff
	// (default HeartbeatInterval).
	RestartBackoff time.Duration

	// Ablation switches (benchmarking only; both default off = optimized).

	// DisablePrepareSkip makes vertices at the delay cap run the prepare
	// phase anyway (the paper's Section 4.4 optimization turned off).
	DisablePrepareSkip bool
	// DisableJournalPrune keeps every committed input in the fork journal
	// instead of pruning entries below the terminated frontier.
	DisableJournalPrune bool
}

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
	if (c.Program == nil) == (c.Delta == nil) {
		return errors.New("engine: exactly one of Program and Delta is required")
	}
	if c.Partition == nil {
		c.Partition = func(id stream.VertexID, n int) int { return int(id % stream.VertexID(n)) }
	}
	if c.CompactEvery == 0 && c.Kind == MainLoop {
		c.CompactEvery = 64
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = 64
	} else if c.MaxBatch < 1 {
		c.MaxBatch = 1
	}
	if c.MaxBatch > 1 && c.FlushInterval <= 0 {
		c.FlushInterval = 2 * time.Millisecond
	}
	if c.Wire != nil && c.ResendAfter <= 0 {
		c.ResendAfter = 5 * time.Millisecond
	}
	if c.DelayBoundCeiling < 0 || (c.DelayBoundCeiling > 0 && c.DelayBoundCeiling < c.DelayBound) {
		return errors.New("engine: DelayBoundCeiling must be 0 or >= DelayBound")
	}
	if c.InboxHigh > 0 && (c.InboxLow <= 0 || c.InboxLow >= c.InboxHigh) {
		c.InboxLow = c.InboxHigh / 2
	}
	if c.HeartbeatInterval > 0 {
		if c.SuspectAfter < 1 {
			c.SuspectAfter = 3
		}
		if c.MaxRestarts < 1 {
			c.MaxRestarts = 5
		}
		if c.RestartWindow <= 0 {
			c.RestartWindow = time.Minute
		}
		if c.RestartBackoff <= 0 {
			c.RestartBackoff = c.HeartbeatInterval
		}
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

// Stats are the engine's live counters.
type Stats struct {
	Commits     metrics.Counter
	UpdateMsgs  metrics.Counter
	PrepareMsgs metrics.Counter
	AckMsgs     metrics.Counter
	InputMsgs   metrics.Counter
	Emits       metrics.Counter
	// Coalesced counts update messages merged into a newer update for the
	// same (producer, consumer) pair before leaving the processor.
	Coalesced metrics.Counter
	// LocalMsgs counts vertex messages whose owner was the sending processor:
	// dispatched from its own window, never handed to the transport.
	LocalMsgs metrics.Counter
	// Delta-mode counters (static zero in value mode). DeltaMerged counts
	// deltas accumulated into an already-pending slot, DeltaSkipped counts
	// sub-threshold pendings parked instead of scheduled (selective
	// activation), DeltaApplied counts pendings consumed by commits.
	DeltaMerged  metrics.Counter
	DeltaSkipped metrics.Counter
	DeltaApplied metrics.Counter
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
	LocalMsgs                                          int64
	TransportSent, TransportDelivered, TransportResent int64
	// TransportPayloads counts messages inside first-transmission frames, so
	// TransportPayloads/(TransportSent−TransportResent) is the average batch
	// size and TransportAckFrames/TransportPayloads the ack suppression
	// ratio.
	TransportPayloads, TransportAckFrames int64
	TransportDeadLetters                  int64
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
	// from rotation after exceeding MaxRestarts.
	Crashes, Recoveries, Quarantined int64
	// Generation counts loop incarnations (0 = never recovered).
	Generation int64
}

// incarnation is one generation of the loop's running topology: network,
// tracker, processors and control endpoints. A crash recovery tears the
// current incarnation down wholesale and builds the next one from the last
// terminated-iteration checkpoint; everything durable (store, journal,
// counters, Lamport clock) lives on the Engine and survives.
type incarnation struct {
	gen     int
	net     *transport.Network
	tracker *Tracker
	procs   []*processor // nil entries are quarantined processors
	masterE *transport.Endpoint
	ingestE *transport.Endpoint
	supE    *transport.Endpoint // heartbeat sink; nil when unsupervised
	migE    *transport.Endpoint // migration-coordinator endpoint (elastic.go)
	route   func(stream.VertexID) transport.NodeID

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	// ready is closed once the incarnation is fully bootstrapped (checkpoint
	// re-activation and residual replay done). The supervisor waits for it
	// before it starts judging heartbeats: the replay storm of a large
	// recovery can starve the sender goroutines long enough to look like
	// death, and suspecting during it livelocks recovery.
	ready     chan struct{}
	readyOnce sync.Once

	masterCrashed atomic.Bool
}

func (inc *incarnation) stopNow() {
	inc.stopOnce.Do(func() { close(inc.stop) })
}

func (inc *incarnation) markReady() {
	inc.readyOnce.Do(func() { close(inc.ready) })
}

// Engine runs one loop (main or branch) of the iterative computation.
type Engine struct {
	// genMu guards the current incarnation and the per-incarnation parts of
	// cfg (Snapshot, StartIteration), plus the quarantine and restart
	// bookkeeping. Processor goroutines never take it: they capture their
	// incarnation's tracker/route/snapshot at construction, so a recovery
	// holding the write lock can wait for them to drain without deadlock.
	genMu       sync.RWMutex
	cfg         Config
	inc         *incarnation
	quarantined map[int]struct{}
	restartLog  map[int][]time.Time // per-processor restart times (-1 = master)
	stopped     bool

	clock    lamport.Clock
	journal  *inputJournal // main loops only
	stats    Stats
	netStats *transport.Stats // shared across incarnations
	// outboxes recycles the ingest-side windows: Ingest, IngestAll, Activate
	// and AdoptBranch callers run concurrently, so each call fills an outbox
	// of its own (ingestOut) and ships it through the ingest endpoint.
	outboxes sync.Pool
	start    time.Time
	created  time.Time

	// Flow control. ingestGate (nil when MaxPendingInputs == 0) is the
	// admission ledger: Ingest acquires before touching the incarnation —
	// blocking under genMu would deadlock the recovery that needs the write
	// lock to unwedge the very consumer being waited on — and applyWork
	// releases as inputs land on vertices. delayBound is the effective B,
	// raised at runtime by SetDelayBound within the configured ceiling.
	// slow is per-processor injected commit latency (FaultSlowProcessor);
	// it survives incarnations so a recovered processor stays slow.
	ingestGate *flow.Gate
	delayBound atomic.Int64
	slow       []atomic.Int64
	// deltaBoost is the overload multiplier on the delta significance
	// threshold (Float64bits; 1.0 at rest). Raised by the degradation
	// ladder: commits get rarer, pendings keep absorbing arrivals, and
	// convergence quality degrades instead of input being dropped.
	deltaBoost atomic.Uint64

	// Elastic repartitioning (plan.go, elastic.go). plan is the current
	// partition-plan epoch, read atomically by every route call and replaced
	// only by a migration's cutover publish; it lives on the Engine so plans
	// survive crash recoveries. migMu serializes migrations (one at a time).
	plan          atomic.Pointer[PartitionPlan]
	migMu         sync.Mutex
	migActive     bool
	migSeq        int64
	migCrashArm   atomic.Int64 // proc+1 of an armed FaultCrashDuringMigration
	migrations    metrics.Counter
	migratedVerts metrics.Counter
	migAborts     metrics.Counter
	migBounced    metrics.Counter
	migDurHist    *obs.StreamHist

	// Supervision counters and event log.
	crashes     metrics.Counter
	recoveries  metrics.Counter
	recMu       sync.Mutex
	recoveryLog []RecoveryEvent

	// Fault injection (chaos schedules + transport faults, re-applied to
	// every incarnation's network). wireFaults is the socket-level analogue:
	// one shared fault state wrapping every wire connection of every
	// incarnation (nil without Config.Wire); lastWireDown rate-limits
	// wire-down recovery events.
	faultMu       sync.Mutex
	faultDrop     float64
	faultDup      float64
	pendingFaults []Fault
	watcherOn     bool
	wireFaults    *transport.WireFaults
	lastWireDown  atomic.Int64

	// Observability (nil / zero unless Config.Obs was set).
	obsScope        *obs.Scope
	obsDetach       func()
	tracer          *obs.Tracer
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
	iterLog  []IterationRecord
	haltSent bool

	masterPaused atomic.Bool
	done         chan struct{}
	doneOnce     sync.Once
	stopOnce     sync.Once
	supWG        sync.WaitGroup
	started      atomic.Bool

	// pins holds the fork iterations of live branches; compaction never
	// drops versions a pinned snapshot may still lazily read.
	pinMu sync.Mutex
	pins  map[int64]int

	// onStop runs after the engine stops (branch engines release their
	// parent's fork pin here; a Reshard replacement releases its resume
	// pin).
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
		cfg:         cfg,
		netStats:    &transport.Stats{},
		quarantined: make(map[int]struct{}),
		restartLog:  make(map[int][]time.Time),
		created:     time.Now(),
		done:        make(chan struct{}),
		pins:        make(map[int64]int),
		slow:        make([]atomic.Int64, cfg.MaxProcessors),
	}
	e.outboxes.New = func() any { return newOutbox(cfg.MaxProcessors) }
	e.plan.Store(basePlan(cfg.Processors, cfg.MaxProcessors))
	e.delayBound.Store(cfg.DelayBound)
	e.deltaBoost.Store(math.Float64bits(1))
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
		e.tracer = cfg.Obs.Tracer // before the processors: they cache it
		e.spans = cfg.Obs.Spans
	}
	e.inc = e.buildIncarnation(0)
	if cfg.Obs != nil {
		e.attachObs(cfg.Obs)
	}
	return e, nil
}

// supervised reports whether this engine runs a heartbeat supervisor.
func (e *Engine) supervised() bool {
	return e.cfg.Kind == MainLoop && e.cfg.HeartbeatInterval > 0
}

// Node-ID layout: processor slots occupy 0..MaxProcessors-1 (spares above
// Config.Processors idle until a migration lands on them); the control
// endpoints sit above the slot ceiling.
func (e *Engine) masterNode() transport.NodeID { return transport.NodeID(e.cfg.MaxProcessors) }
func (e *Engine) ingestNode() transport.NodeID { return transport.NodeID(e.cfg.MaxProcessors + 1) }
func (e *Engine) supNode() transport.NodeID    { return transport.NodeID(e.cfg.MaxProcessors + 2) }
func (e *Engine) migNode() transport.NodeID    { return transport.NodeID(e.cfg.MaxProcessors + 3) }

// buildIncarnation assembles generation gen's topology from the engine's
// current configuration and quarantine set. Caller holds genMu (or is New).
func (e *Engine) buildIncarnation(gen int) *incarnation {
	inc := &incarnation{gen: gen, stop: make(chan struct{}), ready: make(chan struct{})}
	var wire *transport.WireConfig
	if e.cfg.Wire != nil {
		wire = e.buildWire(gen)
	}
	inc.net = transport.NewNetwork(transport.Options{
		ResendAfter:   e.cfg.ResendAfter,
		MaxResends:    e.cfg.MaxResends,
		MaxBatch:      e.cfg.MaxBatch,
		FlushInterval: e.cfg.FlushInterval,
		InboxHigh:     e.cfg.InboxHigh,
		InboxLow:      e.cfg.InboxLow,
		DropSeed:      e.cfg.Seed,
		Stats:         e.netStats,
		Spans:         e.spans,
		Wire:          wire,
	})
	e.faultMu.Lock()
	if e.faultDrop > 0 || e.faultDup > 0 {
		inc.net.SetFaults(e.faultDrop, e.faultDup)
	}
	e.faultMu.Unlock()
	inc.tracker = NewTracker(e.cfg.StartIteration)
	inc.route = e.routeFn()
	// Every slot up to MaxProcessors runs a processor goroutine: spares idle
	// on Recv until a migration moves a range onto them, so scaling out never
	// has to mutate a live incarnation's topology.
	inc.procs = make([]*processor, e.cfg.MaxProcessors)
	for i := 0; i < e.cfg.MaxProcessors; i++ {
		if _, q := e.quarantined[i]; q {
			continue
		}
		ep := inc.net.Register(transport.NodeID(i))
		inc.procs[i] = newProcessor(i, e, ep, inc.tracker, e.cfg.Snapshot, inc.route, e.cfg.StartIteration)
	}
	inc.masterE = inc.net.Register(e.masterNode())
	inc.ingestE = inc.net.Register(e.ingestNode())
	if e.supervised() {
		inc.supE = inc.net.Register(e.supNode())
	}
	inc.migE = inc.net.Register(e.migNode())
	return inc
}

// routeFn builds the effective vertex→node mapping: the current partition
// plan (base partition folded through published migrations, read atomically
// per call so a cutover takes effect everywhere at once), with quarantined
// processors remapped onto the survivors. Caller holds genMu (or is New).
func (e *Engine) routeFn() func(stream.VertexID) transport.NodeID {
	base := e.cfg.Partition
	if len(e.quarantined) == 0 {
		return func(id stream.VertexID) transport.NodeID {
			return transport.NodeID(e.plan.Load().Owner(id, base))
		}
	}
	bad := make(map[int]struct{}, len(e.quarantined))
	for i := range e.quarantined {
		bad[i] = struct{}{}
	}
	var survivors []int
	for i := 0; i < e.cfg.MaxProcessors; i++ {
		if _, q := bad[i]; !q {
			survivors = append(survivors, i)
		}
	}
	return func(id stream.VertexID) transport.NodeID {
		p := e.plan.Load().Owner(id, base)
		if _, q := bad[p]; q {
			p = survivors[int(uint64(id)%uint64(len(survivors)))]
		}
		return transport.NodeID(p)
	}
}

// startIncarnation launches an incarnation's goroutines: processors, master,
// and (when supervised) heartbeat senders plus the supervisor.
func (e *Engine) startIncarnation(inc *incarnation) {
	for _, p := range inc.procs {
		if p == nil {
			continue
		}
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
	if e.supervised() && inc.supE != nil {
		for i, p := range inc.procs {
			if p == nil {
				continue
			}
			inc.wg.Add(1)
			go e.heartbeatRun(inc, i, p.ep)
		}
		inc.wg.Add(1)
		go e.heartbeatRun(inc, -1, inc.masterE)
		e.supWG.Add(1)
		go e.superviseRun(inc)
	}
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
	return e.cfg.Snapshot
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
	out := e.ingestOut()
	out.win[inc.route(routeVertex(t))].addInput(m)
	e.ingestShip(inc, out)
}

// ingestOut returns an empty outbox for one ingest-side call to fill.
func (e *Engine) ingestOut() *outbox { return e.outboxes.Get().(*outbox) }

// ingestShip sends what an ingest-side call queued in out through inc's
// ingest endpoint and recycles the outbox.
func (e *Engine) ingestShip(inc *incarnation, out *outbox) {
	out.ship(inc.ingestE, -1, e.cfg.MaxBatch, e.spans, uint64(e.cfg.LoopID))
	e.outboxes.Put(out)
}

// IngestAll ingests a tuple slice in order, in admission-gate-sized chunks:
// each chunk rides under one incarnation lock and one transport flush, in a
// handful of multi-payload frames instead of one frame per tuple. With
// MaxPendingInputs set the call blocks — parking the upstream source —
// whenever the loop already holds a full window of unapplied inputs.
func (e *Engine) IngestAll(ts []stream.Tuple) {
	if e.ingestGate == nil {
		e.ingestChunk(ts)
		return
	}
	for len(ts) > 0 {
		n := e.ingestGate.AcquireUpTo(len(ts))
		e.ingestChunk(ts[:n])
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
	out := e.ingestOut()
	for _, t := range ts {
		m.Tuple = t
		if traceOn {
			m.Ctx = e.spans.Begin(now)
		}
		out.win[inc.route(routeVertex(t))].addInput(m)
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
	out := e.ingestOut()
	for _, id := range ids {
		out.win[inc.route(id)].addActivate(msgActivate{To: id, Token: tok})
	}
	e.ingestShip(inc, out)
}

// masterRun is the master node of one incarnation: it advances the iteration
// frontier, flushes checkpoints, publishes termination notifications, records
// statistics, and detects convergence. A crashed master (CrashMaster) simply
// exits; the supervisor notices the missing beats and restarts the loop.
func (e *Engine) masterRun(inc *incarnation) {
	for {
		// A paused master (Figure 8c) stops advancing the frontier; the
		// tracker keeps accumulating and the announcement happens wholesale
		// after it resumes.
		for e.masterPaused.Load() {
			select {
			case <-inc.stop:
				return
			default:
				time.Sleep(time.Millisecond)
			}
		}
		if inc.masterCrashed.Load() {
			return
		}
		from, to, quiesced, ok := inc.tracker.Advance()
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
			halt := false
			e.iterMu.Lock()
			for k := from; k <= to; k++ {
				commits, progress := inc.tracker.IterStats(k)
				e.iterLog = append(e.iterLog, IterationRecord{Iteration: k, At: at, Commits: commits, Progress: progress})
				if e.iterCommitsHist != nil {
					e.iterCommitsHist.Observe(float64(commits))
				}
				if e.cfg.Converge != nil && e.cfg.Converge(k, commits, progress) {
					halt = true
				}
			}
			e.iterMu.Unlock()
			e.observeAdvance(to)
			inc.tracker.DropStatsThrough(to)
			if e.journal != nil && !e.cfg.DisableJournalPrune {
				e.journal.Prune(to)
			}
			if n := e.cfg.CompactEvery; n > 0 && to/n > (from-1)/n {
				if err := e.cfg.Store.Compact(e.cfg.LoopID, e.compactFloor(to)); err != nil {
					panic(fmt.Sprintf("engine: compact store: %v", err))
				}
			}
			e.broadcast(inc, msgFrontier{Notified: to})
			if e.cfg.MaxIterations > 0 && to+1 >= e.cfg.MaxIterations {
				halt = true
			}
			if halt {
				e.halt(inc)
				return
			}
		}
		if quiesced && e.cfg.Kind == BranchLoop {
			// Frozen input and no obligations left: the branch converged.
			e.halt(inc)
			return
		}
	}
}

// observeAdvance records one frontier advance with the hub: a trace event
// (frontier advances are rare, so they are never sampled out) and the
// inter-advance gap histogram. Master goroutine only.
func (e *Engine) observeAdvance(to int64) {
	if e.tracer != nil {
		e.tracer.Record(uint64(e.cfg.LoopID), obs.EvFrontier, obs.NoVertex, 0, to)
	}
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
		e.spans.Stage(tc.ctx, trace.StageFrontier, uint64(e.cfg.LoopID), trace.NoVertex, uint64(tc.iter), now)
	}
}

// broadcast sends a control message to every live processor and flushes, so
// frontier notifications and halts are never delayed by batching.
func (e *Engine) broadcast(inc *incarnation, payload any) {
	for i, p := range inc.procs {
		if p == nil {
			continue
		}
		inc.masterE.Send(transport.NodeID(i), payload)
	}
	inc.masterE.Flush()
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

// Done is closed when the loop converges (branch quiescence, the Converge
// predicate, or MaxIterations).
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

// WaitQuiesce blocks until no obligations remain (all ingested inputs fully
// processed and propagated) or the timeout expires. It is the main loop's
// synchronization point for tests and fork call sites that want exact
// results. It follows the live incarnation: tokens lost in a crash pin the
// old tracker forever, so quiescence is only ever reached by the incarnation
// that finishes the work.
func (e *Engine) WaitQuiesce(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if e.cur().tracker.Quiesced() {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("engine: loop %d did not quiesce within %v", e.cfg.LoopID, timeout)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// WaitSettled blocks until the loop is quiescent and the master has
// announced the termination of every iteration that ran (so a fork taken now
// snapshots everything and needs no seeds).
func (e *Engine) WaitSettled(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if e.cur().tracker.Settled() {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("engine: loop %d did not settle within %v", e.cfg.LoopID, timeout)
		}
		time.Sleep(200 * time.Microsecond)
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
			if p != nil {
				p.setPaused(false) // a paused goroutine must wake to exit
			}
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
		// Drop the snapshot handle this engine reads through (recovery and
		// Reshard grab one on self-bootstrapping loops; for branches this
		// doubles the onStop release, which is idempotent).
		e.snapshot().release()
	})
}

// pinFork registers a live snapshot at iter and returns its release.
func (e *Engine) pinFork(iter int64) func() {
	e.pinMu.Lock()
	e.pins[iter]++
	e.pinMu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			e.pinMu.Lock()
			if e.pins[iter]--; e.pins[iter] <= 0 {
				delete(e.pins, iter)
			}
			e.pinMu.Unlock()
		})
	}
}

// PinnedForks returns the number of live fork pins: snapshots of this loop
// still held by running branch loops or retained query results. Compaction
// never drops versions a pinned snapshot may read, so a nonzero count after
// every query closed indicates a leak.
func (e *Engine) PinnedForks() int {
	e.pinMu.Lock()
	defer e.pinMu.Unlock()
	n := 0
	for _, c := range e.pins {
		n += c
	}
	return n
}

// ForkJournalSeq returns, on a branch engine, the parent main loop's
// input-journal sequence at fork time: the number of ingested inputs this
// branch's fixed point reflects.
func (e *Engine) ForkJournalSeq() uint64 { return e.forkJournalSeq }

// compactFloor caps a compaction at the oldest pinned fork iteration.
func (e *Engine) compactFloor(to int64) int64 {
	e.pinMu.Lock()
	defer e.pinMu.Unlock()
	for iter := range e.pins {
		if iter < to {
			to = iter
		}
	}
	return to
}

// FlowSnapshot is a point-in-time view of the loop's backpressure state:
// the ingest admission ledger, the effective delay bound, and the transport
// inbox watermark machinery.
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
	// DelayBound is the effective B (>= Config.DelayBound when the
	// overload controller raised it).
	DelayBound int64
	// InboxMax / InboxTotal are the deepest and summed transport inbox
	// depths; StalledEndpoints and HeldFrames are the receivers currently
	// withholding credit and the frames senders have parked for them.
	InboxMax, InboxTotal         int
	StalledEndpoints, HeldFrames int
	// Stalls and FramesHeld are the cumulative transport counters;
	// UrgentShed counts stall-exempt control frames a watermark-full
	// receiver acknowledged without enqueueing.
	Stalls, FramesHeld, UrgentShed int64
}

// FlowSnapshot captures the engine's current backpressure state.
func (e *Engine) FlowSnapshot() FlowSnapshot {
	s := FlowSnapshot{DelayBound: e.delayBound.Load()}
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
	s.Stalls = e.netStats.Stalls.Value()
	s.FramesHeld = e.netStats.HeldFrames.Value()
	s.UrgentShed = e.netStats.UrgentShed.Value()
	return s
}

// DelayBound returns the effective delay bound B; SetDelayBound may have
// raised it above the configured value.
func (e *Engine) DelayBound() int64 { return e.delayBound.Load() }

// SetDelayBound adjusts the effective B, clamped to
// [Config.DelayBound, Config.DelayBoundCeiling], and returns the value
// adopted. With no ceiling configured it is a no-op pinned at the
// configured bound. Raising B is the L2 degradation rung: in-flight work
// may run further ahead of termination notifications, absorbing an ingest
// surge at the price of staler approximations. Any value already admitted
// under a larger B stays valid when B is lowered again — the delay bound
// only gates new holdbacks, so correctness is that of the largest B used.
func (e *Engine) SetDelayBound(b int64) int64 {
	lo, hi := e.cfg.DelayBound, e.cfg.DelayBoundCeiling
	if hi < lo {
		hi = lo
	}
	if b < lo {
		b = lo
	}
	if b > hi {
		b = hi
	}
	e.delayBound.Store(b)
	return b
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

// DeltaBoost returns the current significance-threshold multiplier (1.0 at
// rest; delta mode only).
func (e *Engine) DeltaBoost() float64 {
	return math.Float64frombits(e.deltaBoost.Load())
}

// SetDeltaBoost adjusts the delta-mode significance threshold multiplier
// (clamped to >= 1) and returns the value adopted; a no-op returning 1 in
// value mode. Raising the boost is a degradation rung: pendings keep
// accumulating exactly (nothing is dropped), but fewer clear the bar, so
// commit work shrinks and the loop's answer coarsens toward
// threshold-sized dust. Lowering it rescans every parked pending — any that
// became significant again are re-queued, so convergence to the base
// threshold's fixed point is preserved once the overload passes.
func (e *Engine) SetDeltaBoost(mult float64) float64 {
	if e.cfg.Delta == nil {
		return 1
	}
	if mult < 1 || math.IsNaN(mult) {
		mult = 1
	}
	old := math.Float64frombits(e.deltaBoost.Load())
	e.deltaBoost.Store(math.Float64bits(mult))
	if mult < old {
		e.genMu.RLock()
		defer e.genMu.RUnlock()
		inc := e.inc
		for i, p := range inc.procs {
			if p == nil {
				continue
			}
			tok := inc.tracker.AcquireFloor(0)
			inc.ingestE.Send(transport.NodeID(i), msgRescan{Token: tok})
		}
		inc.ingestE.Flush()
	}
	return mult
}

// SlowProcessor injects d of extra latency into every commit of processor i
// (0 clears it). Unlike Config.CommitDelay it can be toggled on a running
// engine and survives crash recoveries, which makes it the slow-consumer
// chaos primitive behind FaultSlowProcessor.
func (e *Engine) SlowProcessor(i int, d time.Duration) {
	if i >= 0 && i < len(e.slow) {
		e.slow[i].Store(int64(d))
	}
}

// TransportMapSizes sums the current incarnation's transport bookkeeping:
// dedup entries beyond the cumulative-ack watermarks and unacknowledged
// outgoing frames. Both are bounded by the in-flight window; the throughput
// soak asserts they do not grow with traffic volume.
func (e *Engine) TransportMapSizes() (seen, unacked int) {
	return e.cur().net.MapSizes()
}

// Notified returns the highest terminated iteration.
func (e *Engine) Notified() int64 { return e.cur().tracker.Notified() }

// Quiesced reports whether the loop currently has no pending obligations.
func (e *Engine) Quiesced() bool { return e.cur().tracker.Quiesced() }

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
	quarantined := len(e.quarantined)
	var queueDepth int64
	for _, p := range e.inc.procs {
		if p != nil {
			queueDepth += p.deltaDepth.Load()
		}
	}
	e.genMu.RUnlock()
	return StatsSnapshot{
		DeltaMerged:          e.stats.DeltaMerged.Value(),
		DeltaSkipped:         e.stats.DeltaSkipped.Value(),
		DeltaApplied:         e.stats.DeltaApplied.Value(),
		DeltaQueueDepth:      queueDepth,
		Commits:              e.stats.Commits.Value(),
		UpdateMsgs:           e.stats.UpdateMsgs.Value(),
		PrepareMsgs:          e.stats.PrepareMsgs.Value(),
		AckMsgs:              e.stats.AckMsgs.Value(),
		InputMsgs:            e.stats.InputMsgs.Value(),
		Emits:                e.stats.Emits.Value(),
		Coalesced:            e.stats.Coalesced.Value(),
		LocalMsgs:            e.stats.LocalMsgs.Value(),
		TransportSent:        e.netStats.Sent.Value(),
		TransportDelivered:   e.netStats.Delivered.Value(),
		TransportResent:      e.netStats.Resent.Value(),
		TransportPayloads:    e.netStats.Payloads.Value(),
		TransportAckFrames:   e.netStats.AckFrames.Value(),
		TransportDeadLetters: e.netStats.DeadLetters.Value(),
		WireTxFrames:         e.netStats.WireTxFrames.Value(),
		WireRxFrames:         e.netStats.WireRxFrames.Value(),
		WireTxBytes:          e.netStats.WireTxBytes.Value(),
		WireRxBytes:          e.netStats.WireRxBytes.Value(),
		WireReconnects:       e.netStats.WireReconnects.Value(),
		WireChecksumFailures: e.netStats.WireChecksumFailures.Value(),
		WireTornFrames:       e.netStats.WireTornFrames.Value(),
		Notified:             tracker.Notified(),
		Frontier:             tracker.Frontier(),
		PendingPrepares:      e.pendingPrepares.Load(),
		Crashes:              e.crashes.Value(),
		Recoveries:           e.recoveries.Value(),
		Quarantined:          int64(quarantined),
		Generation:           int64(gen),
	}
}

// IterationLog returns a copy of the per-iteration termination records.
func (e *Engine) IterationLog() []IterationRecord {
	e.iterMu.Lock()
	defer e.iterMu.Unlock()
	out := make([]IterationRecord, len(e.iterLog))
	copy(out, e.iterLog)
	return out
}

// ReadState returns the freshest stored application state of a vertex at or
// below maxIter (use MaxInt64 for the newest). For a loop bootstrapped from
// a snapshot (branch loops, recovery), vertices the loop never committed
// fall back to the snapshot version — the branch's logical state is the
// snapshot overlaid with its own commits.
func (e *Engine) ReadState(id stream.VertexID, maxIter int64) (any, int64, error) {
	data, iter, err := e.cfg.Store.Latest(e.cfg.LoopID, id, maxIter)
	if snap := e.snapshot(); errors.Is(err, storage.ErrNotFound) && snap != nil {
		data, iter, err = snap.latest(e.cfg.Store, id, snap.UpTo)
	}
	if err != nil {
		return nil, 0, err
	}
	return e.decodeState(id, data, iter)
}

func (e *Engine) decodeState(id stream.VertexID, data []byte, iter int64) (any, int64, error) {
	blob, err := StateCodec{}.DecodeBlob(data)
	if err != nil {
		return nil, 0, fmt.Errorf("engine: stored version of vertex %d: %w", id, err)
	}
	return blob.State, iter, nil
}

// ScanStates visits the freshest stored state of every vertex at or below
// maxIter in ascending vertex order, overlaying this loop's commits onto its
// snapshot source (if any).
func (e *Engine) ScanStates(maxIter int64, fn func(id stream.VertexID, iter int64, state any) error) error {
	own := make(map[stream.VertexID]storage.Record)
	if err := e.cfg.Store.Scan(e.cfg.LoopID, maxIter, func(r storage.Record) error {
		own[r.Vertex] = r
		return nil
	}); err != nil {
		return err
	}
	merged := make([]storage.Record, 0, len(own))
	if snap := e.snapshot(); snap != nil {
		if err := snap.scan(e.cfg.Store, snap.UpTo, func(r storage.Record) error {
			if _, overlaid := own[r.Vertex]; !overlaid {
				merged = append(merged, r)
			}
			return nil
		}); err != nil {
			return err
		}
	}
	for _, r := range own {
		merged = append(merged, r)
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i].Vertex < merged[j].Vertex })
	for _, r := range merged {
		state, iter, err := e.decodeState(r.Vertex, r.Data, r.Iteration)
		if err != nil {
			return err
		}
		if err := fn(r.Vertex, iter, state); err != nil {
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

// Fork captures a fork specification at the current frontier: snapshot
// iteration, seed set and residual inputs (Section 5.2). The main loop keeps
// running; terminated iterations are immutable, which is what makes the
// snapshot consistent without a pause.
func (e *Engine) Fork() ForkSpec {
	e.genMu.RLock()
	defer e.genMu.RUnlock()
	return e.forkLocked()
}

// forkLocked captures the fork spec; caller holds genMu.
func (e *Engine) forkLocked() ForkSpec {
	inc := e.inc
	// Quiescence is sampled before the scans: if nothing was pending at
	// this point, any activity the scans pick up afterwards stems from
	// post-fork inputs, which the fork instant may legitimately exclude.
	quiesced := inc.tracker.Quiesced()
	forkIter := inc.tracker.Notified()
	var seeds []stream.VertexID
	above := false
	for _, p := range inc.procs {
		if p == nil {
			continue
		}
		seeds = append(seeds, p.forkScan(forkIter)...)
		if len(p.forkScan(forkIter+1)) > 0 {
			above = true
		}
	}
	// Mid-migration a vertex is in two processors' shares; list it once.
	slices.Sort(seeds)
	spec := ForkSpec{ForkIter: forkIter, Seeds: slices.Compact(seeds)}
	if e.journal != nil {
		spec.Residual = e.journal.Residual(forkIter)
	}
	// Fast path for forks from a fully absorbed main loop: with no pending
	// obligations, no commits above the fork iteration and no residual
	// inputs, the snapshot alone is the complete fixed point — the branch
	// needs no re-activation at all.
	if quiesced && !above && len(spec.Residual) == 0 {
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

// InjectTransportFaults makes the engine's transport drop and duplicate
// data frames with the given probabilities (fault-tolerance experiments;
// requires ResendAfter > 0 or dropped work is lost forever). The rates are
// remembered and re-applied to every incarnation a recovery builds.
func (e *Engine) InjectTransportFaults(drop, dup float64) {
	e.faultMu.Lock()
	e.faultDrop, e.faultDup = drop, dup
	e.faultMu.Unlock()
	e.cur().net.SetFaults(drop, dup)
}

// ForkBranch forks a branch loop from the current frontier (Section 5.2):
// it captures a ForkSpec, assembles a branch engine reading its initial
// vertex states from this loop's snapshot and writing to branchLoop, starts
// it, seeds it with the spec's activations, and replays the residual inputs.
// The branch signals Done when it converges. The caller owns the returned
// engine (Stop it after reading results). Override lets the caller tweak the
// branch configuration (e.g. a different delay bound) before launch; seed,
// when non-nil, runs extra activations under the branch's bootstrap guard —
// use it instead of post-fork Activate calls, which can race an empty
// branch's instant convergence.
func (e *Engine) ForkBranch(branchLoop storage.LoopID, override func(*Config), seed func(*Engine)) (*Engine, ForkSpec, error) {
	// Pin before capturing the spec so a concurrent compaction can never
	// drop versions between the snapshot decision and the pin. The pinned
	// iteration is at most the spec's fork iteration (the frontier only
	// advances), which keeps the pin conservative and safe. The pin is
	// taken twice on purpose: engine-side (compactFloor, for this engine's
	// own periodic compaction) and store-side (the Store.Pin clamp, which
	// also covers direct Compact calls and background compactors the
	// engine never sees).
	e.genMu.RLock()
	pinIter := e.inc.tracker.Notified()
	enginePin := e.pinFork(pinIter)
	storePin := e.cfg.Store.Pin(e.cfg.LoopID, pinIter)
	forkSeq := e.journalSeq() // before the spec: conservative for merges
	spec := e.forkLocked()
	cfg := e.cfg
	e.genMu.RUnlock()
	// Chaos schedules may target the fork instant (crash mid-branch-fork).
	e.fireForkFaults()
	cfg.Kind = BranchLoop
	cfg.LoopID = branchLoop
	cfg.branchObs = e.branchObs
	// An MVCC-style backend upgrades the fork to an O(1) pinned handle: the
	// grab is safe here, after the spec, because the pins above already
	// clamp any compaction below the fork iteration. From now on the branch
	// reads an immutable root instead of racing the parent's live tree.
	var handle storage.Snapshot
	if sn, ok := cfg.Store.(storage.Snapshotter); ok {
		handle = sn.Snapshot(e.cfg.LoopID)
	}
	cfg.Snapshot = &SnapshotSource{Loop: e.cfg.LoopID, UpTo: spec.ForkIter, Handle: handle}
	cfg.Converge = nil
	cfg.MaxIterations = 0
	cfg.StartIteration = 0
	// Branches are short-lived in-process scratch loops: they never ride the
	// wire even when the parent does (override can opt back in).
	cfg.Wire = nil
	if override != nil {
		override(&cfg)
	}
	unpin := func() {
		enginePin()
		storePin()
		if handle != nil {
			handle.Release()
		}
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
	br.Start()
	// Guard against the empty instant between Start and the first seed, in
	// which the branch would otherwise appear quiescent and converge with no
	// work done.
	release := br.HoldQuiesce()
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
	if err := snap.scan(e.cfg.Store, snap.UpTo, func(r storage.Record) error {
		ids = append(ids, r.Vertex)
		return nil
	}); err != nil {
		return err
	}
	e.Activate(ids...)
	return nil
}

// Reshard stops a settled main loop and returns a replacement running
// newProcs processors (and newPartition, when non-nil) that resumes in place
// over the same store and loop ID. This is the paper's load rebalancing
// (Section 5.1): "the master stops the computation before the modification
// to the partitioning scheme; after the partitioning scheme is modified, the
// computation will restart from the last terminated iteration." The caller
// must pause ingestion around the call; the old engine is stopped on
// success.
func Reshard(e *Engine, newProcs int, newPartition func(stream.VertexID, int) int, settleTimeout time.Duration) (*Engine, error) {
	if e.cfg.Kind != MainLoop {
		return nil, errors.New("engine: Reshard applies to main loops")
	}
	// The documented precondition, enforced: admitted-but-unapplied inputs
	// ride the incarnation that dies with Stop below, and nothing replays
	// them (Reshard is not a crash recovery). Callers must drain or pause
	// the spout first — or use live migration (Migrate), which needs no
	// pause at all.
	if d := e.FlowSnapshot().GateDepth; d > 0 {
		return nil, fmt.Errorf("%w: %d admitted inputs not yet applied", ErrIngestionActive, d)
	}
	if err := e.WaitSettled(settleTimeout); err != nil {
		return nil, err
	}
	resume := e.Notified()
	e.Stop()
	cfg := e.Config()
	cfg.Processors = newProcs
	if cfg.MaxProcessors < newProcs {
		// The replacement re-defaults its slot ceiling: a reshard that grows
		// past the old ceiling should not fail validation, and the old
		// ceiling (defaulted from the old width) carries no intent.
		cfg.MaxProcessors = 0
	}
	if newPartition != nil {
		cfg.Partition = newPartition
	}
	cfg.Snapshot = &SnapshotSource{Loop: cfg.LoopID, UpTo: resume}
	// Resuming over own history: pin the view like a fork would, so the
	// replacement's lazy bootstrap reads are immune to compaction. The
	// Store.Pin clamp covers every backend (MemStore and DiskStore have no
	// handles, only the pin registry); on Snapshotter backends the handle
	// additionally makes the view immutable. The old engine is already
	// stopped, so the grab sees all its commits.
	storePin := cfg.Store.Pin(cfg.LoopID, resume)
	if sn, ok := cfg.Store.(storage.Snapshotter); ok {
		cfg.Snapshot.Handle = sn.Snapshot(cfg.LoopID)
	}
	cfg.StartIteration = resume + 1
	ne, err := New(cfg)
	if err != nil {
		cfg.Snapshot.release()
		storePin()
		return nil, err
	}
	// Held until the replacement stops: its lazy bootstrap reads span its
	// whole life, exactly like a branch's.
	ne.onStop = storePin
	ne.Start()
	return ne, nil
}

// LoadStats returns the number of vertices each processor currently hosts,
// the signal the paper's master uses to decide when to rebalance
// (quarantined processors report zero).
func (e *Engine) LoadStats() []int {
	loads := e.PartitionLoads()
	out := make([]int, len(loads))
	for i, l := range loads {
		out[i] = l.Vertices
	}
	return out
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
// until the delay bound is exhausted. State survives; use CrashMaster for
// true crash semantics.
func (e *Engine) PauseMaster() { e.masterPaused.Store(true) }

// ResumeMaster resumes a paused master.
func (e *Engine) ResumeMaster() { e.masterPaused.Store(false) }

// proc returns processor i of the current incarnation (nil when out of range
// or quarantined).
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
