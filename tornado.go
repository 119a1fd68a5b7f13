// Package tornado is a Go implementation of Tornado, the system for
// real-time iterative analysis over evolving data described in
// "Tornado: A System For Real-Time Iterative Analysis Over Evolving Data"
// (SIGMOD 2016).
//
// A Tornado System runs a graph-parallel vertex program (Program) over an
// evolving input stream. The main loop continuously ingests stream tuples
// and maintains an approximation of the fixed point at the current instant;
// Query forks an independent branch loop from a consistent snapshot of the
// main loop and iterates the program to convergence, so results arrive
// quickly because the branch starts near the fixed point (Section 3 of the
// paper). Iterations run under the bounded asynchronous model of Section 4:
// updates carry iteration numbers negotiated with their consumers through a
// three-phase protocol, and the delay bound B interpolates between
// synchronous BSP execution (B = 1) and unbounded asynchrony.
//
// Minimal usage:
//
//	sys, err := tornado.New(algorithms.SSSP{Source: 0}, tornado.Options{})
//	...
//	sys.Ingest(stream.AddEdge(1, 0, 1))
//	res, err := sys.Query(time.Minute)
//	state, _, err := res.Read(1)
//	res.Close()
//	sys.Close()
package tornado

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"tornado/internal/delta"
	"tornado/internal/engine"
	"tornado/internal/flow"
	"tornado/internal/obs"
	"tornado/internal/obs/trace"
	"tornado/internal/queryserv"
	"tornado/internal/storage"
	"tornado/internal/stream"
)

// Re-exported core types, so applications only import this package plus the
// stream vocabulary.
type (
	// Program defines per-vertex behavior; see engine.Program.
	Program = engine.Program
	// Context is the callback view handed to Program methods.
	Context = engine.Context
	// DeltaProgram defines per-vertex behavior for delta-accumulative
	// execution (NewDelta); see delta.Program.
	DeltaProgram = delta.Program
	// DeltaContext is the callback view handed to DeltaProgram methods.
	DeltaContext = delta.Context
	// LoopKind distinguishes main and branch loops.
	LoopKind = engine.LoopKind
	// IterationRecord is one terminated iteration's statistics.
	IterationRecord = engine.IterationRecord
	// StatsSnapshot is a point-in-time copy of runtime counters.
	StatsSnapshot = engine.StatsSnapshot
	// VertexID identifies a vertex.
	VertexID = stream.VertexID
	// Tuple is one turnstile stream update.
	Tuple = stream.Tuple
	// TraceEvent is one recorded protocol transition (see obs.Event).
	TraceEvent = obs.Event
	// RecoveryEvent is one entry of the crash-recovery log.
	RecoveryEvent = engine.RecoveryEvent
	// Fault is one entry of a deterministic chaos schedule.
	Fault = engine.Fault
	// FaultKind selects what a planned fault does.
	FaultKind = engine.FaultKind
	// FaultPlan is a deterministic chaos schedule of crashes.
	FaultPlan = engine.FaultPlan
	// QuerySpec describes one asynchronous query: deadline, staleness
	// tolerance, priority, and optional branch configuration hooks.
	QuerySpec = queryserv.QuerySpec
	// Ticket is a submitted query's handle (see System.Submit).
	Ticket = queryserv.Ticket
	// QueryOptions tune the query service (worker pool, queue bound, cache).
	QueryOptions = queryserv.Options
	// WireSpec puts the main loop's message plane on a real socket transport
	// (see Options.Wire and engine.WireSpec).
	WireSpec = engine.WireSpec
	// StoreStats is the versioned store's residency report (live versions,
	// resident bytes, compactions, pinned snapshots; see System.StoreStats).
	StoreStats = storage.StoreStats
	// VertexRange is a contiguous inclusive vertex-ID range (live migration).
	VertexRange = engine.VertexRange
	// PlanStats describes the current partition plan: epoch, active slots,
	// overrides, and migration counters (see System.PlanStats).
	PlanStats = engine.PlanStats
	// PartitionLoad is one processor slot's live load accounting (see
	// System.PartitionLoads).
	PartitionLoad = engine.PartitionLoad
)

// ErrOverloaded is returned by Submit when the query wait queue is full and
// the query was shed (backpressure; retry later or relax the load).
var ErrOverloaded = queryserv.ErrOverloaded

// ErrIngestionActive is returned by Reshard when admitted inputs are still
// unapplied — stop-the-world resharding would lose them. Drain (WaitQuiesce)
// first, or use live migration (Migrate/ScaleOut), which needs no pause.
var ErrIngestionActive = engine.ErrIngestionActive

// ErrMigrationActive is returned when a live migration is already in flight
// (one at a time).
var ErrMigrationActive = engine.ErrMigrationActive

// Loop kind values.
const (
	MainLoop   = engine.MainLoop
	BranchLoop = engine.BranchLoop
)

// Planned fault kinds.
const (
	FaultCrashProcessor       = engine.FaultCrashProcessor
	FaultCrashMaster          = engine.FaultCrashMaster
	FaultSlowProcessor        = engine.FaultSlowProcessor
	FaultWirePartition        = engine.FaultWirePartition
	FaultWireCorrupt          = engine.FaultWireCorrupt
	FaultCrashDuringMigration = engine.FaultCrashDuringMigration
)

// RegisterStateType registers a concrete vertex-state type for
// serialization; call it (typically from init) for every state type your
// Program stores. A type that also has BinaryTag, AppendBinary and
// DecodeBinary methods (engine.BinaryState; DESIGN.md §14) is stored in the
// fixed binary layout, any other through gob.
func RegisterStateType(v any) { engine.RegisterStateType(v) }

// Options configure a System. The zero value is usable.
type Options struct {
	// Processors is the number of processor workers (default 4).
	Processors int
	// DelayBound is the iteration delay bound B (default 64; 1 = BSP).
	DelayBound int64
	// Store holds versioned vertex state. The default is the in-memory MVCC
	// copy-on-write store with a background compactor: query forks pin O(1)
	// snapshot handles and superseded versions are reclaimed below the
	// checkpoint horizon, so RSS stays bounded on long-running streams (the
	// system closes a store it defaulted; one you pass stays yours to
	// close). Use storage.NewMemStore for the plain map backend or
	// storage.OpenDisk for durable checkpoints.
	Store storage.Store
	// ResendAfter enables at-least-once transport with the given
	// retransmission timeout (default 0: trusted in-process delivery).
	ResendAfter time.Duration
	// Wire, when non-nil, puts the main loop's message plane on a real
	// socket transport: every frame is length-prefixed, CRC-framed and
	// crosses the configured listener (a fresh TCP loopback port by
	// default), with supervised per-peer reconnection and corruption
	// defense. Implies at-least-once delivery — ResendAfter defaults on.
	Wire *WireSpec
	// Seed drives engine-internal randomness (default 1).
	Seed int64

	// Supervision. With a non-zero HeartbeatInterval the main loop runs
	// under a failure detector: every processor and the master send
	// periodic heartbeats, and a node silent for SuspectAfter intervals is
	// declared dead and the loop restarted from the last terminated
	// iteration's checkpoint (Section 5.3 of the paper).

	// HeartbeatInterval enables supervised crash recovery with the given
	// heartbeat period (default 0: unsupervised; crashes then need a
	// manual Engine().RecoverFromCheckpoint).
	HeartbeatInterval time.Duration
	// SuspectAfter is how many missed heartbeats declare a node dead
	// (default 3).
	SuspectAfter int
	// MaxRestarts quarantines a processor that crashes more than this many
	// times within RestartWindow; its partition is remapped onto the
	// survivors (default 5; 0 disables quarantine).
	MaxRestarts int
	// RestartWindow is the sliding window for MaxRestarts (default 1m).
	RestartWindow time.Duration
	// RestartBackoff is the base of the exponential backoff between
	// successive restarts (default: one heartbeat interval).
	RestartBackoff time.Duration

	// Observability. Every System carries an obs.Hub: protocol counters,
	// frontier gauges and a sampled three-phase protocol tracer register
	// per loop, readable via Obs(), Trace() and the HTTP endpoint.

	// MetricsAddr, when non-empty, serves the exposition endpoint
	// (/metrics in Prometheus text format, /statusz JSON snapshots,
	// /debug/pprof) on this host:port; ":0" picks a free port. Read the
	// bound address from MetricsURL.
	MetricsAddr string
	// TraceCapacity is the protocol tracer's ring size (default 8192).
	TraceCapacity int
	// TraceSampleEvery traces 1 in N vertices by identifier hash
	// (default 64; 1 traces every vertex; negative disables sampling so
	// only watched vertices are traced).
	TraceSampleEvery int
	// SpanSampleRate is the head-based sampling probability for causal
	// freshness traces: each input delta (and each query) is traced with
	// this probability from ingest through iterate to the frontier (default
	// 0.01; 0 disables head sampling — tail escalation on sheds, resends,
	// recoveries and degradation rungs still force-retains traces; negative
	// disables tracing entirely). Spans surface on /traces, the shell's
	// trace/slow commands, and the tornado_stage_seconds histograms.
	SpanSampleRate float64
	// SpanCapacity is the span ring's size in spans (default 4096).
	SpanCapacity int

	// Query tunes the query service that answers Submit and Query calls:
	// worker-pool size (concurrent branch loops), wait-queue bound,
	// shed/backpressure behavior and the freshness-bounded result cache.
	// The zero value uses the service defaults.
	Query QueryOptions

	// Flow tunes end-to-end backpressure and the graceful-degradation
	// ladder. The zero value bounds every queue with the FlowOptions
	// defaults and runs the overload controller.
	Flow FlowOptions

	// Elastic tunes live repartitioning: spare processor slots for
	// hot-partition splits, and the pressure-driven split/merge planner.
	// The zero value runs without spares and without the planner; manual
	// Migrate/ScaleOut/ScaleIn remain available whenever spare slots exist.
	Elastic ElasticOptions
}

// ElasticOptions configure the elastic repartitioning layer (DESIGN.md §16).
type ElasticOptions struct {
	// MaxProcessors is the processor slot ceiling. Slots beyond Processors
	// start idle (owning no vertices) and join the plan when a hot
	// partition splits onto them; ScaleIn drains a slot and retires it
	// again. Default Processors: no spares, splits impossible.
	MaxProcessors int
	// AutoScale runs the background split/merge planner: sustained overload
	// (degradation ladder level SplitLevel+) concentrated in one partition
	// splits it onto a spare; a scaled-out partition idle through MergeAfter
	// calm samples drains back. Requires flow control (the ladder is the
	// pressure signal) and MaxProcessors > Processors to be useful.
	AutoScale bool
	// SampleEvery is the planner's sampling period (default 250ms).
	SampleEvery time.Duration
	// Planner hysteresis overrides; zero values take the flow.ScalePlanner
	// defaults (split at ladder level 2 after 3 samples when the hottest
	// partition carries 2x the mean update rate; merge after 8 calm samples).
	SplitLevel    int
	SplitAfter    int
	MergeAfter    int
	Concentration float64
	MinVertices   int
}

// FlowOptions bound the system's queues and drive graceful degradation
// under overload. With the (default) bounds in place a slow consumer
// propagates backpressure all the way to the ingesting source instead of
// growing unbounded buffers, and the overload controller walks a
// degradation ladder — widen the query staleness window, raise the delay
// bound B toward its ceiling, shed low-priority queries — before any input
// is ever dropped.
type FlowOptions struct {
	// Disable turns all flow control off: unbounded queues, fixed B, no
	// degradation (the pre-flow-control behavior).
	Disable bool
	// MaxPendingInputs bounds stream inputs admitted into the main loop but
	// not yet applied to a vertex; Ingest blocks at the bound, parking the
	// source (default 16384, -1 unbounded).
	MaxPendingInputs int
	// InboxHigh / InboxLow are the transport's per-endpoint inbox credit
	// watermarks: at InboxHigh a receiver withdraws delivery credit and
	// senders park frames until it drains to InboxLow (default 4096 /
	// high÷2, -1 unbounded).
	InboxHigh, InboxLow int
	// DelayBoundCeiling is how far the overload controller may raise the
	// effective delay bound B while degraded — more asynchrony, fewer
	// synchronization stalls, staler approximation (default 4×DelayBound,
	// -1 pins B at its configured value).
	DelayBoundCeiling int64
	// DisableController keeps the bounds but never walks the degradation
	// ladder automatically (manual control via QueryService().SetDegraded
	// and Engine().SetDelayBound remains available).
	DisableController bool
	// SampleEvery is the overload controller's sampling period
	// (default 25ms).
	SampleEvery time.Duration
}

func (o *FlowOptions) fill(delayBound int64) {
	if o.Disable {
		return
	}
	if o.MaxPendingInputs == 0 {
		o.MaxPendingInputs = 1 << 14
	}
	if o.InboxHigh == 0 {
		o.InboxHigh = 4096
	}
	if o.DelayBoundCeiling == 0 {
		o.DelayBoundCeiling = 4 * delayBound
	}
	if o.SampleEvery <= 0 {
		o.SampleEvery = 25 * time.Millisecond
	}
}

// nonNeg maps the -1 "explicitly unbounded" convention to the zero value
// the engine understands as disabled.
func nonNeg[T int | int64](n T) T {
	if n < 0 {
		return 0
	}
	return n
}

func (o *Options) fill() {
	if o.Processors <= 0 {
		o.Processors = 4
	}
	if o.DelayBound <= 0 {
		o.DelayBound = 64
	}
	if o.Store == nil {
		o.Store = storage.NewMVCCStore(storage.AutoCompact(2 * time.Second))
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	o.Flow.fill(o.DelayBound)
	if o.Elastic.SampleEvery <= 0 {
		o.Elastic.SampleEvery = 250 * time.Millisecond
	}
}

// System is a running Tornado instance: one main loop plus on-demand branch
// loops.
type System struct {
	mu       sync.RWMutex
	main     *engine.Engine
	store    storage.Store
	ownStore bool         // store was defaulted by New: Close owns it
	program  Program      // value mode (nil in delta mode)
	delta    DeltaProgram // delta mode (nil in value mode)
	nextLoop atomic.Uint64

	qs   *queryserv.Service
	qapi *queryserv.API

	// Overload controller state: the ladder base/ceiling for B and the
	// bounds the pressure signal normalizes against (all fixed at New).
	flowCtl       *flow.Controller
	flowBase      int64
	flowCeil      int64
	flowInboxHigh int
	flowQueueCap  int

	// Elastic planner loop (nil when Options.Elastic.AutoScale is off).
	scaleStop chan struct{}
	scaleWG   sync.WaitGroup

	hub          *obs.Hub
	branchesLive atomic.Int64
	branchTotal  atomic.Int64
	branchHist   *obs.StreamHist
	obsScope     *obs.Scope
}

// engine returns the current main-loop engine (it can be swapped by
// Reshard).
func (s *System) engine() *engine.Engine {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.main
}

// New assembles and starts a System running program.
func New(program Program, opts Options) (*System, error) {
	return newSystem(program, nil, opts)
}

// NewDelta assembles and starts a System running a delta-accumulative
// program (DESIGN.md §13): gathered updates fold into per-vertex pending
// deltas through the program's commutative-associative accumulator, a
// per-processor priority queue activates the most significant pendings
// first, and sub-threshold pendings park until they matter. Under overload
// the degradation ladder raises the significance threshold instead of the
// delay bound alone, shrinking commit work while every withheld delta keeps
// accumulating exactly.
func NewDelta(dp DeltaProgram, opts Options) (*System, error) {
	return newSystem(nil, dp, opts)
}

func newSystem(program Program, dp DeltaProgram, opts Options) (*System, error) {
	ownStore := opts.Store == nil // defaulted below: Close tears it down
	opts.fill()
	spanRate := opts.SpanSampleRate
	switch {
	case spanRate == 0:
		spanRate = 0.01
	case spanRate < 0:
		spanRate = 0
	}
	hub := obs.NewHub(obs.HubOptions{
		TraceCapacity:    opts.TraceCapacity,
		TraceSampleEvery: opts.TraceSampleEvery,
		SpanCapacity:     opts.SpanCapacity,
		SpanSampleRate:   spanRate,
	})
	cfg := engine.Config{
		Processors:        opts.Processors,
		MaxProcessors:     opts.Elastic.MaxProcessors,
		DelayBound:        opts.DelayBound,
		Kind:              engine.MainLoop,
		LoopID:            storage.MainLoop,
		Store:             opts.Store,
		Program:           program,
		Delta:             dp,
		ResendAfter:       opts.ResendAfter,
		Seed:              opts.Seed,
		Wire:              opts.Wire,
		Obs:               hub,
		HeartbeatInterval: opts.HeartbeatInterval,
		SuspectAfter:      opts.SuspectAfter,
		MaxRestarts:       opts.MaxRestarts,
		RestartWindow:     opts.RestartWindow,
		RestartBackoff:    opts.RestartBackoff,
	}
	if !opts.Flow.Disable {
		cfg.MaxPendingInputs = nonNeg(opts.Flow.MaxPendingInputs)
		cfg.InboxHigh = nonNeg(opts.Flow.InboxHigh)
		cfg.InboxLow = nonNeg(opts.Flow.InboxLow)
		cfg.DelayBoundCeiling = nonNeg(opts.Flow.DelayBoundCeiling)
	}
	e, err := engine.New(cfg)
	if err != nil {
		return nil, err
	}
	s := &System{main: e, store: opts.Store, ownStore: ownStore, program: program, delta: dp, hub: hub}
	s.flowBase = opts.DelayBound
	s.flowCeil = cfg.DelayBoundCeiling
	s.flowInboxHigh = cfg.InboxHigh
	if s.flowQueueCap = opts.Query.QueueCap; s.flowQueueCap <= 0 {
		s.flowQueueCap = 128 // the queryserv default
	}
	s.nextLoop.Store(1)
	s.attachObs()
	s.qs = queryserv.New(queryserv.Backend{
		Fork:        s.forkBranch,
		Drop:        s.dropBranch,
		JournalSeq:  func() uint64 { return s.engine().JournalSeq() },
		OnConverged: func(d time.Duration) { s.branchHist.Observe(d.Seconds()) },
	}, opts.Query, hub)
	if !opts.Flow.Disable && !opts.Flow.DisableController {
		s.flowCtl = flow.NewController(flow.ControllerOptions{
			SampleEvery: opts.Flow.SampleEvery,
			Spans:       hub.Spans,
		}, s.flowPressure, s.applyFlowLevel)
	}
	s.qapi = queryserv.NewAPI(s.qs, 0)
	s.qapi.Mount(hub.Handle) // before Serve: routes are fixed at bind time
	if opts.MetricsAddr != "" {
		if _, err := hub.Serve(opts.MetricsAddr); err != nil {
			if s.flowCtl != nil {
				s.flowCtl.Stop()
			}
			s.qapi.Close()
			s.qs.Close()
			e.Stop()
			return nil, fmt.Errorf("tornado: metrics endpoint: %w", err)
		}
	}
	e.Start()
	if opts.Elastic.AutoScale {
		s.scaleStop = make(chan struct{})
		s.scaleWG.Add(1)
		go s.scaleRun(opts.Elastic)
	}
	return s, nil
}

// scaleRun is the elastic planner loop: it samples per-partition load and
// the overload ladder, asks the flow.ScalePlanner for a verdict, and
// executes split/merge decisions as live migrations. Rates are deltas of
// the slots' lifetime counters over the sampling window; a crash recovery
// resets the counters, which reads as a negative delta and is skipped.
func (s *System) scaleRun(opts ElasticOptions) {
	defer s.scaleWG.Done()
	planner := flow.NewScalePlanner(flow.ScalePlannerOptions{
		SplitLevel:    opts.SplitLevel,
		SplitAfter:    opts.SplitAfter,
		MergeAfter:    opts.MergeAfter,
		Concentration: opts.Concentration,
		MinVertices:   opts.MinVertices,
	})
	tick := time.NewTicker(opts.SampleEvery)
	defer tick.Stop()
	var (
		prevEng *engine.Engine
		prev    []engine.PartitionLoad
		prevAt  time.Time
	)
	for {
		select {
		case <-s.scaleStop:
			return
		case <-tick.C:
		}
		e := s.engine()
		if e != prevEng {
			prevEng, prev = e, nil // Reshard swapped the engine: rates restart
		}
		loads := e.PartitionLoads()
		stats := e.PlanStats()
		now := time.Now()
		dt := now.Sub(prevAt).Seconds()
		fl := make([]flow.PartitionLoad, len(loads))
		spare := false
		for i, l := range loads {
			fl[i] = flow.PartitionLoad{
				Proc:       l.Proc,
				Active:     l.Active,
				Scaled:     l.Active && l.Proc >= stats.BaseProcessors,
				Vertices:   l.Vertices,
				QueueDepth: l.QueueDepth,
			}
			if prev != nil && i < len(prev) && dt > 0 {
				if du := l.Updates - prev[i].Updates; du > 0 {
					fl[i].UpdateRate = float64(du) / dt
				}
				if dc := l.Commits - prev[i].Commits; dc > 0 {
					fl[i].CommitRate = float64(dc) / dt
				}
			}
			if !l.Active && !l.Quarantined {
				spare = true
			}
		}
		prev, prevAt = loads, now
		level := 0
		if c := s.flowCtl; c != nil {
			level = c.Level()
		}
		switch d := planner.Decide(level, fl, spare); d.Action {
		case flow.ScaleSplit:
			_, _ = e.ScaleOut(d.Proc)
		case flow.ScaleMerge:
			_ = e.ScaleIn(d.Proc)
		}
	}
}

// forkBranch is the query service's fork backend: it allocates a loop ID,
// forks from the current main-loop frontier, and keeps the system-level
// branch accounting.
func (s *System) forkBranch(override func(*engine.Config), seed func(*engine.Engine)) (*engine.Engine, engine.ForkSpec, storage.LoopID, error) {
	loop := storage.LoopID(s.nextLoop.Add(1))
	br, spec, err := s.engine().ForkBranch(loop, override, seed)
	if err != nil {
		return nil, engine.ForkSpec{}, 0, err
	}
	s.branchTotal.Add(1)
	s.branchesLive.Add(1)
	return br, spec, loop, nil
}

// dropBranch releases a stopped branch loop's stored versions (every fork
// passes through here exactly once, when its last reference closes).
func (s *System) dropBranch(loop storage.LoopID) {
	_ = s.store.DropLoop(loop)
	s.branchesLive.Add(-1)
}

// StoreStats reports the versioned store's residency counters — live
// versions and bytes, compaction activity, pinned snapshots and the oldest
// handle's age. ok is false when the configured store does not account
// itself (the default MVCC store does; MemStore and DiskStore do not).
func (s *System) StoreStats() (stats StoreStats, ok bool) {
	if sp, isProvider := s.store.(storage.StatsProvider); isProvider {
		return sp.StoreStats(), true
	}
	return StoreStats{}, false
}

// flowPressure is the overload controller's signal: utilization of the
// tightest bounded queue in the system — the ingest admission gate, the
// deepest transport inbox against its high watermark, and the query wait
// queue — as a 0..1 fraction.
func (s *System) flowPressure() float64 {
	fs := s.engine().FlowSnapshot()
	var p float64
	if fs.GateCapacity > 0 {
		if fs.GateSaturated {
			// Producers are parked at the gate: fully saturated regardless
			// of the instantaneous depth (which may sit between the
			// watermarks while the gate waits for the low-water drain).
			p = 1
		} else {
			p = float64(fs.GateDepth) / float64(fs.GateCapacity)
		}
	}
	if s.flowInboxHigh > 0 {
		p = math.Max(p, float64(fs.InboxMax)/float64(s.flowInboxHigh))
	}
	if s.flowQueueCap > 0 {
		p = math.Max(p, float64(s.qs.Snapshot().QueueDepth)/float64(s.flowQueueCap))
	}
	return p
}

// applyFlowLevel is the degradation ladder. Each rung trades answer quality
// or low-priority service for headroom, and every rung is reversible — input
// is never dropped:
//
//	level 0: exact service, configured delay bound.
//	level 1: the query service imposes its degraded staleness floor, so
//	         cache hits and coalescing absorb fork load.
//	level 2: additionally raise the effective delay bound B to its ceiling —
//	         fewer synchronization stalls, staler approximation.
//	level 3: additionally shed queries below the priority cut with
//	         ErrOverloaded.
//
// A delta-mode loop (NewDelta) gets one more reversible lever: levels 2 and
// 3 also boost the significance threshold (×4, ×16), so sub-threshold
// pendings park instead of committing. Nothing is dropped — parked deltas
// keep accumulating exactly, and stepping back down rescans them — the
// approximation just coarsens to threshold-sized dust while the overload
// lasts.
func (s *System) applyFlowLevel(level int) {
	e := s.engine()
	switch {
	case level <= 0:
		s.qs.SetDegraded(0)
		e.SetDelayBound(s.flowBase)
		e.SetDeltaBoost(1)
	case level == 1:
		s.qs.SetDegraded(1)
		e.SetDelayBound(s.flowBase)
		e.SetDeltaBoost(1)
	case level == 2:
		s.qs.SetDegraded(1)
		e.SetDelayBound(s.flowCeil)
		e.SetDeltaBoost(4)
	default:
		s.qs.SetDegraded(2)
		e.SetDelayBound(s.flowCeil)
		e.SetDeltaBoost(16)
	}
}

// FlowStats is a point-in-time view of the system's backpressure and
// degradation state.
type FlowStats struct {
	// Engine is the main loop's flow snapshot: admission-gate ledger,
	// transport inbox depths, credit stalls, effective delay bound.
	Engine engine.FlowSnapshot
	// OverloadLevel is the degradation ladder's current rung (0 = normal);
	// OverloadTransitions counts rung changes and Degraded the cumulative
	// time spent above level 0. Pressure is the controller's last sample
	// (utilization of the tightest bounded queue, 0..1).
	OverloadLevel       int
	OverloadTransitions int64
	Degraded            time.Duration
	Pressure            float64
	// QueryDegradeLevel and ShedLowPriority mirror the query service: its
	// imposed degradation level and how many low-priority queries the
	// level-2 cut refused.
	QueryDegradeLevel int
	ShedLowPriority   int64
}

// FlowStats snapshots the backpressure and overload state end to end.
func (s *System) FlowStats() FlowStats {
	st := FlowStats{Engine: s.engine().FlowSnapshot()}
	if c := s.flowCtl; c != nil {
		st.OverloadLevel = c.Level()
		st.OverloadTransitions = c.Transitions()
		st.Degraded = c.Degraded()
		st.Pressure = c.Pressure()
	}
	snap := s.qs.Snapshot()
	st.QueryDegradeLevel = snap.DegradeLevel
	st.ShedLowPriority = snap.ShedLowPriority
	return st
}

// attachObs registers the system-level collectors: branch-loop lifecycle
// counters, the branch convergence-latency histogram, and the system
// /statusz section.
func (s *System) attachObs() {
	sc := s.hub.Registry.Scope(obs.L("kind", "system"))
	s.obsScope = sc
	sc.GaugeFunc("tornado_branches_live",
		"Branch loops currently running (forked queries not yet closed).",
		func() float64 { return float64(s.branchesLive.Load()) })
	sc.GaugeFunc("tornado_branches_total",
		"Branch loops ever forked by Query.",
		func() float64 { return float64(s.branchTotal.Load()) })
	s.branchHist = sc.Histogram("tornado_branch_converge_seconds",
		"Wall-clock time from fork to branch-loop convergence.", nil)
	sc.GaugeFunc("tornado_overload_level",
		"Degradation-ladder rung the overload controller is at (0 = normal).",
		func() float64 {
			if c := s.flowCtl; c != nil {
				return float64(c.Level())
			}
			return 0
		})
	sc.GaugeFunc("tornado_overload_pressure",
		"Overload controller's last pressure sample (utilization of the tightest bounded queue).",
		func() float64 {
			if c := s.flowCtl; c != nil {
				return c.Pressure()
			}
			return 0
		})
	s.hub.AddStatus("system", func() any {
		prog, mode := any(s.program), "value"
		if s.delta != nil {
			prog, mode = s.delta, "delta"
		}
		m := map[string]any{
			"branches_live":  s.branchesLive.Load(),
			"branches_total": s.branchTotal.Load(),
			"program":        fmt.Sprintf("%T", prog),
			"mode":           mode,
		}
		if c := s.flowCtl; c != nil {
			m["overload_level"] = c.Level()
			m["overload_transitions"] = c.Transitions()
			m["overload_pressure"] = c.Pressure()
			m["degraded_for"] = c.Degraded().String()
		}
		return m
	})
}

// Obs returns the system's observability hub (advanced use: custom
// collectors, status sections, direct tracer access).
func (s *System) Obs() *obs.Hub { return s.hub }

// MetricsURL returns the base URL of the exposition endpoint, or "" when
// Options.MetricsAddr was empty.
func (s *System) MetricsURL() string {
	if addr := s.hub.Addr(); addr != "" {
		return "http://" + addr
	}
	return ""
}

// Spans returns the causal span tracer: head-sampled end-to-end freshness
// traces of input deltas (spout -> gate -> batch -> frame -> inbox ->
// process -> commit -> frontier) and queries (submit -> queue -> fork ->
// wait -> serve), with tail escalation on sheds, resends, recoveries and
// degradation rungs. Use trace.Filter with Spans().Traces to query, or the
// /traces HTTP endpoint.
func (s *System) Spans() *trace.Tracer { return s.hub.Spans }

// Trace returns the retained protocol events of one main-loop vertex, oldest
// first: input applications, PREPARE/ACK negotiations, iteration-number
// assignments at commit, and gathered updates. Only sampled or watched
// vertices have events; call Watch(id) before the run to guarantee coverage.
func (s *System) Trace(id VertexID) []TraceEvent { return s.engine().Trace(id) }

// Watch forces tracing of one vertex regardless of the sampling rate.
func (s *System) Watch(id VertexID) { s.engine().Watch(id) }

// Unwatch reverses Watch.
func (s *System) Unwatch(id VertexID) { s.engine().Unwatch(id) }

// Ingest feeds one stream tuple to the main loop. Edge tuples evolve the
// dependency graph; value tuples are delivered to the program's OnInput.
func (s *System) Ingest(t Tuple) { s.engine().Ingest(t) }

// IngestAll feeds tuples in order.
func (s *System) IngestAll(ts []Tuple) { s.engine().IngestAll(ts) }

// WaitQuiesce blocks until the main loop has fully absorbed all ingested
// input (approximation caught up) or the timeout expires.
func (s *System) WaitQuiesce(timeout time.Duration) error {
	return s.engine().WaitQuiesce(timeout)
}

// ReadApprox returns the main loop's current approximate state of a vertex.
func (s *System) ReadApprox(id VertexID) (any, error) {
	state, _, err := s.engine().ReadState(id, math.MaxInt64)
	return state, err
}

// ScanApprox visits the main loop's approximate state of every vertex.
func (s *System) ScanApprox(fn func(id VertexID, state any) error) error {
	return s.engine().ScanStates(math.MaxInt64, func(id VertexID, _ int64, state any) error {
		return fn(id, state)
	})
}

// Result is a converged query's result set. Close it when done; Close is
// idempotent, and coalesced or cached queries may hand several Results
// backed by one shared branch loop — the loop is released when the last
// handle (and the result cache) lets go.
type Result struct {
	qr *queryserv.Result
	// Latency is the submitter's end-to-end wall time (queueing, fork and
	// convergence; near zero for cache hits).
	Latency time.Duration
	// CacheHit reports the result was served from the freshness-bounded
	// cache without forking.
	CacheHit bool
	// Coalesced reports the query shared another query's branch loop.
	Coalesced bool
}

func wrapResult(qr *queryserv.Result) *Result {
	return &Result{qr: qr, Latency: qr.Latency, CacheHit: qr.CacheHit, Coalesced: qr.Coalesced}
}

// Read returns the branch's state of one vertex.
func (r *Result) Read(id VertexID) (any, int64, error) { return r.qr.Read(id) }

// Scan visits the branch's state of every vertex in ascending ID order.
func (r *Result) Scan(fn func(id VertexID, state any) error) error { return r.qr.Scan(fn) }

// Stats returns the branch loop's counters.
func (r *Result) Stats() StatsSnapshot { return r.qr.Engine().StatsSnapshot() }

// IterationLog returns the branch loop's per-iteration records.
func (r *Result) IterationLog() []IterationRecord { return r.qr.Engine().IterationLog() }

// ForkIteration returns the main-loop iteration the branch was forked at.
func (r *Result) ForkIteration() int64 { return r.qr.ForkSpec().ForkIter }

// ForkSeq returns the number of ingested inputs the result reflects (the
// input-journal sequence at fork time).
func (r *Result) ForkSeq() uint64 { return r.qr.ForkSeq() }

// Freshness is the result's live staleness watermark: how many input deltas
// the main loop has ingested past this result's fork, right now. A freshly
// served exact result reads 0 and drifts upward as ingestion continues —
// poll it to decide when a held handle is too stale to keep using.
func (r *Result) Freshness() uint64 { return r.qr.Freshness() }

// Engine exposes the underlying branch engine (advanced use: custom reads).
func (r *Result) Engine() *engine.Engine { return r.qr.Engine() }

// Close releases this handle on the result. Idempotent; the branch loop's
// resources and stored versions are dropped once no handle references it.
func (r *Result) Close() { r.qr.Close() }

// Submit enqueues an asynchronous query with the query service: admission
// control bounds the number of concurrent branch loops, identical concurrent
// queries coalesce onto one fork, and queries declaring a staleness
// tolerance may be answered from the result cache without forking at all.
// ErrOverloaded means the wait queue was full and the query was shed.
func (s *System) Submit(ctx context.Context, spec QuerySpec) (*Ticket, error) {
	return s.qs.Submit(ctx, spec)
}

// QueryService exposes the serving front end (listing and cancelling
// queries, counters, advanced tuning).
func (s *System) QueryService() *queryserv.Service { return s.qs }

// Query forks a branch loop at the current instant, waits for it to
// converge, and returns its results (Section 5.2). It is a thin synchronous
// wrapper over Submit: the query passes through admission control and may
// coalesce with concurrent identical queries, but never accepts a stale
// cached answer.
func (s *System) Query(timeout time.Duration) (*Result, error) {
	return s.submitAndWait(QuerySpec{Timeout: timeout})
}

// QueryStale is Query with a staleness tolerance: a cached result at most
// maxDeltas ingested inputs behind the present is accepted without forking.
func (s *System) QueryStale(timeout time.Duration, maxDeltas uint64) (*Result, error) {
	return s.submitAndWait(QuerySpec{Timeout: timeout, MaxStaleDeltas: maxDeltas})
}

// QueryWith is Query with pre-fork hooks: override tweaks the branch
// configuration (e.g. a different delay bound), and seed, when non-nil, runs
// under the branch's bootstrap guard before it may converge (e.g. to
// activate extra vertices such as SGD samplers). Hooked queries are private:
// they never coalesce and never touch the cache (set QuerySpec.OverrideKey
// via Submit to opt a deterministic override into sharing).
func (s *System) QueryWith(timeout time.Duration, override func(*engine.Config), seed func(*engine.Engine)) (*Result, error) {
	return s.submitAndWait(QuerySpec{Timeout: timeout, Override: override, Seed: seed})
}

func (s *System) submitAndWait(spec QuerySpec) (*Result, error) {
	t, err := s.qs.Submit(context.Background(), spec)
	if err != nil {
		return nil, err
	}
	qr, err := t.Wait(context.Background())
	if err != nil {
		return nil, err
	}
	return wrapResult(qr), nil
}

// Merge folds a converged query result back into the main loop's
// approximation (Section 5.2 of the paper): the branch's fixed point is
// adopted at iteration lastTerminated+B, so subsequent queries start even
// closer to their answers. Merging is only valid while no new inputs are
// being ingested; if inputs raced the merge, ErrMergeConflict is returned
// and the main loop is unchanged. The Result remains readable and must
// still be closed by the caller.
func (s *System) Merge(res *Result) error {
	return s.engine().AdoptBranch(res.qr.Engine())
}

// Reshard rebalances the main loop onto a new processor count (the paper's
// Section 5.1 repartitioning): the loop settles, stops, and resumes in place
// from its last terminated iteration under the new partitioning. Pause
// ingestion (and any attached Feed) around the call.
func (s *System) Reshard(newProcs int, timeout time.Duration) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Ingestion is paused by contract, so the admitted backlog drains to
	// zero; if a spout is still feeding, the quiesce times out or the gate
	// refills and engine.Reshard refuses with ErrIngestionActive.
	if err := s.main.WaitQuiesce(timeout); err != nil {
		return err
	}
	ne, err := engine.Reshard(s.main, newProcs, nil, timeout)
	if err != nil {
		return err
	}
	s.main = ne
	return nil
}

// Migrate moves the inclusive vertex-ID range [lo, hi] onto main-loop
// processor dest WITHOUT stopping the loop (DESIGN.md §16): the range
// freezes at its current owners, state ships live while in-flight traffic
// journal-forwards, and the cutover is one atomic partition-plan publish.
// Ingestion and queries keep running throughout. Blocks until the migration
// completes; on a crash mid-migration it aborts with the plan unchanged.
func (s *System) Migrate(lo, hi VertexID, dest int) error {
	return s.engine().Migrate(VertexRange{Lo: lo, Hi: hi}, dest)
}

// ScaleOut splits the hottest partition (by hosted vertex count) onto the
// first spare processor slot as a live migration, returning the slot scaled
// onto. Requires Options.Elastic.MaxProcessors > Processors.
func (s *System) ScaleOut() (int, error) { return s.engine().ScaleOut(-1) }

// ScaleIn drains processor slot proc live — everything it owns migrates to
// the least-loaded remaining active slot — and retires it from the plan.
func (s *System) ScaleIn(proc int) error { return s.engine().ScaleIn(proc) }

// PlanStats reports the current partition plan: epoch, base and maximum
// processor counts, which slots are active, the override chain, and the
// lifetime migration counters.
func (s *System) PlanStats() PlanStats { return s.engine().PlanStats() }

// PartitionLoads reports per-slot load accounting: hosted vertices,
// lifetime commit/update counters and delta queue depth — the signals the
// elastic planner weighs.
func (s *System) PartitionLoads() []PartitionLoad { return s.engine().PartitionLoads() }

// CrashProcessor crashes main-loop processor i with true crash semantics:
// its in-memory vertex states, pending inputs and in-flight frames are
// discarded (unlike a pause, which merely delays them). With supervision
// enabled (Options.HeartbeatInterval) the failure is detected via missed
// heartbeats and the loop restarts from the last checkpoint automatically;
// without it, call RecoverFromCheckpoint.
func (s *System) CrashProcessor(i int) { s.engine().CrashProcessor(i) }

// CrashMaster crashes the main loop's master: termination notifications stop
// and no further checkpoints are taken until recovery.
func (s *System) CrashMaster() { s.engine().CrashMaster() }

// RecoverFromCheckpoint manually restarts the main loop from the last
// terminated iteration's checkpoint. It returns false when there is nothing
// to do (system closed, or a concurrent recovery already ran).
func (s *System) RecoverFromCheckpoint() bool { return s.engine().RecoverFromCheckpoint() }

// InjectFaultPlan arms a deterministic chaos schedule against the main loop:
// crash processor i at iteration k, crash the master, crash mid-fork.
func (s *System) InjectFaultPlan(plan FaultPlan) { s.engine().InjectFaultPlan(plan) }

// RecoveryLog returns the main loop's crash-recovery event log (crashes,
// suspicions, restarts, quarantines) in chronological order.
func (s *System) RecoveryLog() []RecoveryEvent { return s.engine().RecoveryLog() }

// Quarantined returns the indexes of quarantined main-loop processors.
func (s *System) Quarantined() []int { return s.engine().Quarantined() }

// WireAddr returns the main loop's wire listener address, or "" when the
// system runs on the in-process transport (Options.Wire nil).
func (s *System) WireAddr() string { return s.engine().WireAddr() }

// SetWirePartition hard-partitions (or heals) the wire: while on, every
// frame on every connection vanishes. Returns false without a wire.
func (s *System) SetWirePartition(on bool) bool { return s.engine().SetWirePartition(on) }

// SetWireCorrupt makes the wire flip bytes in roughly the given fraction of
// frames; corrupted frames fail their checksum at the receiver and are
// dropped with the connection, never delivered. Returns false without a wire.
func (s *System) SetWireCorrupt(rate float64) bool { return s.engine().SetWireCorrupt(rate) }

// Stats returns the main loop's counters.
func (s *System) Stats() StatsSnapshot { return s.engine().StatsSnapshot() }

// DeltaBoost returns the delta-mode significance threshold multiplier
// (1 at rest, and always 1 in value mode).
func (s *System) DeltaBoost() float64 { return s.engine().DeltaBoost() }

// SetDeltaBoost manually adjusts the delta-mode significance threshold
// multiplier (clamped to >= 1; no-op in value mode) and returns the adopted
// value. Lowering it rescans parked pendings, so the loop converges back to
// the base threshold's fixed point. The overload controller drives the same
// knob automatically at degradation levels 2 and 3.
func (s *System) SetDeltaBoost(mult float64) float64 { return s.engine().SetDeltaBoost(mult) }

// IterationLog returns the main loop's per-iteration records.
func (s *System) IterationLog() []IterationRecord { return s.engine().IterationLog() }

// Engine exposes the underlying main-loop engine (advanced use: fault
// injection, custom forks).
func (s *System) Engine() *engine.Engine { return s.engine() }

// Close stops the overload controller, the query service, the main loop and
// the exposition endpoint. Branch results obtained earlier must be closed
// separately.
func (s *System) Close() {
	if s.scaleStop != nil {
		close(s.scaleStop)
	}
	if s.flowCtl != nil {
		s.flowCtl.Stop()
	}
	s.qapi.Close()
	s.qs.Close()
	s.engine().Stop()
	// After Stop: a planner-driven migration in flight aborts when the
	// incarnation dies, unblocking the loop to observe the closed channel.
	s.scaleWG.Wait()
	if s.ownStore {
		_ = s.store.Close() // stops the default MVCC store's compactor
	}
	if s.obsScope != nil {
		s.hub.RemoveStatus("system")
		s.obsScope.Close()
	}
	_ = s.hub.Close()
}
