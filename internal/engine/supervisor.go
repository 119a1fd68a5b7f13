package engine

// Crash recovery (Section 5.3).
//
// The paper's recovery protocol falls out of termination detection for free:
// every terminated iteration was flushed before it was announced, so the
// store always holds a consistent checkpoint at the last terminated
// iteration, and "the computation will restart from the last terminated
// iteration" after a failure. This file supplies the machinery around that
// guarantee:
//
//   - true crash semantics (CrashProcessor / CrashMaster): the target's
//     endpoint is torn down and its goroutine exits, discarding all
//     in-memory vertex state, in-flight frames and unreleased tokens —
//     unlike PauseProcessor, which merely models a partition;
//   - crash-triggered recovery: the first crash of an incarnation's member
//     starts one recovery goroutine, which restarts a main loop from the
//     checkpoint once the incarnation has finished its own bootstrap. A
//     crash is the only way a member fails in this process, so the crash
//     itself is the failure signal: nothing guesses at it from silence;
//   - quarantine of processors that crash more than defaultMaxRestarts
//     times in defaultRestartWindow: the restart publishes a plan that
//     moves their range to a spare or the least-loaded survivor;
//   - a deterministic fault-plan API for chaos tests (crash processor i at
//     iteration k, crash the master, crash in the middle of a branch fork).
//
// Because obligation tokens are anonymous (the tracker counts them per
// iteration, it does not know who holds them), a single processor cannot be
// restarted in place: the tokens that died with it can never be released, so
// the old tracker's frontier is pinned forever. Recovery therefore replaces
// the whole incarnation — network, tracker, processors — and recomputes from
// the checkpoint, which is exactly the paper's loop-granularity restart. The
// same restart is how every repartition changes the partition map (Section
// 5.1; elastic.go).

import (
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"tornado/internal/obs/trace"
	"tornado/internal/stream"
)

// Recovery event kinds recorded in the engine's recovery log.
const (
	EventCrash      = "crash"      // a crash was injected (API or fault plan)
	EventRecovery   = "recovery"   // a checkpoint restart completed
	EventQuarantine = "quarantine" // a flapping processor left the rotation
	EventReshard    = "reshard"    // Reshard restarted under a new base partition
)

// RecoveryEvent is one entry of the engine's recovery log.
type RecoveryEvent struct {
	Time time.Time
	// Kind is one of the Event* constants.
	Kind string
	// Proc is the processor index the event refers to (-1 = master, -2 =
	// the loop as a whole).
	Proc int
	// Gen is the incarnation generation the event refers to.
	Gen int
	// Resume is the checkpoint iteration a recovery restarted from
	// (recovery events only).
	Resume int64
	Detail string
}

func (e *Engine) recordEvent(ev RecoveryEvent) {
	ev.Time = time.Now()
	e.recMu.Lock()
	e.recoveryLog = append(e.recoveryLog, ev)
	e.recMu.Unlock()
}

// RecoveryLog returns a copy of the recovery event log (crashes, restarts,
// quarantines, repartitions, wire faults) in chronological order.
func (e *Engine) RecoveryLog() []RecoveryEvent {
	e.recMu.Lock()
	defer e.recMu.Unlock()
	out := make([]RecoveryEvent, len(e.recoveryLog))
	copy(out, e.recoveryLog)
	return out
}

// CrashProcessor crashes processor i with true crash semantics: its endpoint
// is torn down (in-flight frames and unsent messages are gone), its
// goroutine exits, and every in-memory vertex state and unreleased token it
// held is lost. The tokens that died with it pin the incarnation's frontier;
// a main loop restarts from the checkpoint on its own (see markDown), a
// branch stays stuck until stopped. Idempotent; a no-op for quarantined or
// out-of-range indexes.
func (e *Engine) CrashProcessor(i int) {
	e.genMu.RLock()
	inc := e.inc
	var p *processor
	if i >= 0 && i < len(inc.procs) && e.plan.Load().Active[i] != slotQuarantined {
		p = inc.procs[i]
	}
	e.genMu.RUnlock()
	if p == nil || p.ep.Crashed() {
		return
	}
	p.ep.Crash()
	p.setPaused(false) // a paused goroutine must wake to observe the crash
	e.crashes.Add(1)
	e.recordEvent(RecoveryEvent{Kind: EventCrash, Proc: i, Gen: inc.gen})
	e.markDown(inc)
}

// CrashMaster crashes the master with true crash semantics: its endpoint is
// torn down and the master goroutine exits, so termination notifications
// stop and no further checkpoints are taken until the restart. Idempotent.
func (e *Engine) CrashMaster() {
	e.genMu.RLock()
	inc := e.inc
	e.genMu.RUnlock()
	if inc.masterCrashed.Swap(true) {
		return
	}
	inc.masterE.Crash()
	e.ResumeMaster()
	e.crashes.Add(1)
	e.recordEvent(RecoveryEvent{Kind: EventCrash, Proc: -1, Gen: inc.gen})
	e.markDown(inc)
}

// markDown closes inc.down on the first crash of one of its members (a
// repartition waiting for rest gives up on it) and, for a main loop, starts
// the one goroutine that recovers inc.
func (e *Engine) markDown(inc *incarnation) {
	first := false
	inc.downOnce.Do(func() {
		close(inc.down)
		first = true
	})
	if !first || e.cfg.Kind != MainLoop {
		return
	}
	// Under genMu, so the Add cannot race Stop's wait: Stop marks the engine
	// stopped under the write lock before it waits.
	e.genMu.RLock()
	defer e.genMu.RUnlock()
	if e.stopped {
		return
	}
	e.supWG.Add(1)
	go e.recoverRun(inc, time.Now())
}

// recoverRun is crash recovery (Section 5.3): once inc is fully
// bootstrapped — a recovery never overlaps the re-activation and replay of
// the restart that built inc — it restarts the loop from the checkpoint,
// logging each crashed processor's restart (quarantining, as a plan
// transition, one over its budget), and re-activates the checkpoint, so work
// lost in the crash is recomputed. Members that crash meanwhile go down with
// the same restart. crashed is when the first member crashed (MTTR).
func (e *Engine) recoverRun(inc *incarnation, crashed time.Time) {
	defer e.supWG.Done()
	select {
	case <-inc.stop:
		return
	case <-inc.ready:
	}
	var dead []int
	for i, p := range inc.procs {
		if p.ep.Crashed() {
			dead = append(dead, i)
		}
	}
	var quarantined []int
	ninc, resume, replayed := e.restart(inc, false, func(p *PartitionPlan) *PartitionPlan {
		now := time.Now()
		cutoff := now.Add(-e.cfg.restartWindow)
		next := p
		for _, i := range dead {
			e.restartLog[i] = append(slices.DeleteFunc(e.restartLog[i], func(t time.Time) bool { return !t.After(cutoff) }), now)
			if len(e.restartLog[i]) > e.cfg.maxRestarts && next.Active[i] != slotQuarantined {
				if q := next.withQuarantine(i, func(s int) int { return inc.procs[s].hostedCount() }); q != nil {
					next, quarantined = q, append(quarantined, i)
				}
			}
		}
		return next
	}, func() {
		if err := e.ActivateStored(); err != nil {
			panic(fmt.Sprintf("engine: re-activate checkpoint state: %v", err))
		}
		// Counted under restart's quiescence guard: an observer reading the
		// stats right after a WaitQuiesce must already see this restart.
		e.recoveries.Add(1)
		if e.mttrHist != nil {
			e.mttrHist.Observe(time.Since(crashed).Seconds())
		}
		// A recovered incarnation is exactly the window tail sampling wants
		// traced: mark the event and force-retain the aftermath.
		e.spans.Escalate(trace.MarkRecovery, trace.Context{}, e.spans.Now())
	})
	if ninc == nil {
		return
	}
	for _, i := range quarantined {
		e.recordEvent(RecoveryEvent{Kind: EventQuarantine, Proc: i, Gen: ninc.gen,
			Detail: fmt.Sprintf("crashed >%d times in %v; range moved off the slot", e.cfg.maxRestarts, e.cfg.restartWindow)})
	}
	e.recordEvent(RecoveryEvent{Kind: EventRecovery, Proc: -2, Gen: ninc.gen, Resume: resume,
		Detail: fmt.Sprintf("replayed %d inputs", replayed)})
}

// restart is the engine's one checkpoint restart, shared by crash recovery
// and repartitioning (elastic.go): it tears `from` down, rolls the store back
// to the last terminated iteration, publishes the plan next derives from the
// current one (under genMu, `from` drained), then starts the next incarnation
// above the checkpoint and replays the journal residual into it. recovered,
// if non-nil, runs before the replay, under the quiescence guard. A settled
// restart (a repartition's) also declines unless `from` is at rest. It
// returns the new incarnation (nil when it declines: the engine stopped,
// `from` is stale, or not at rest), the checkpoint and the number of inputs
// replayed.
func (e *Engine) restart(from *incarnation, settled bool, next func(*PartitionPlan) *PartitionPlan, recovered func()) (*incarnation, int64, int) {
	e.genMu.Lock()
	if e.stopped || e.inc != from || settled && !e.atRest(from) {
		e.genMu.Unlock()
		return nil, 0, 0
	}

	// Tear the old incarnation down wholesale. Closing the tracker unblocks
	// the master's Advance; aborting the network crashes every endpoint so
	// processor Recv loops exit; unpausing wakes goroutines parked in the
	// pause condition. The wait cannot deadlock: none of these goroutines
	// ever takes the generation lock (processors captured their tracker and
	// snapshot at construction).
	from.stopNow()
	from.tracker.Close()
	from.net.Abort()
	for _, p := range from.procs {
		p.setPaused(false)
	}
	e.ResumeMaster()
	from.wg.Wait()

	// Every in-flight input of the dead incarnation is now either applied
	// (its credit already released) or discarded with the incarnation.
	// Discard the admission ledger to match: the journal replay below
	// re-acquires for everything the checkpoint does not cover. Between the
	// reset and the replay the bound is briefly soft — stragglers that
	// released before the reset cannot double-count, Release clamps at zero.
	if e.ingestGate != nil {
		e.ingestGate.Reset()
	}

	// The last terminated iteration is the checkpoint: everything at or
	// below it was flushed before it was announced. Read it only after the
	// old master has exited — a closing tracker can hand the master one
	// final advance, and reading earlier would race its flush and journal
	// prune, losing the inputs committed in between.
	resume := from.tracker.Notified()

	// Extract the inputs whose effects the checkpoint does not cover; the
	// new incarnation re-ingests them. Then roll the store back: versions
	// above the checkpoint are incomplete work of unterminated iterations
	// and must not shadow the recomputed state.
	var residual []stream.Tuple
	if e.journal != nil {
		residual = e.journal.RecoverResidual(resume)
	}
	if err := e.cfg.Store.Truncate(e.cfg.LoopID, resume); err != nil {
		panic(fmt.Sprintf("engine: roll store back for restart: %v", err))
	}
	e.pendingPrepares.Store(0)

	// The new incarnation bootstraps every vertex from the checkpoint and
	// commits strictly above it, so its versions supersede the old. The view
	// is a handle taken right after the rollback (reads stay bounded by
	// resume, so commits landing in the live tree after it are never shadowed
	// and never leak in); the handle the engine read through before — a
	// fork's, or a previous restart's — is released, idempotently.
	e.cfg.snapshot.release()
	e.cfg.snapshot = &SnapshotSource{UpTo: resume, Handle: e.cfg.Store.Snapshot(e.cfg.LoopID)}
	e.cfg.startIteration = resume + 1
	e.plan.Store(next(e.plan.Load()))
	// Per-slot state that outlives incarnations follows the slot count.
	if n := len(e.plan.Load().Active); n > len(e.slow) {
		e.slow = append(e.slow, make([]atomic.Int64, n-len(e.slow))...)
		if e.obsScope != nil {
			e.registerSlotGauges()
		}
	}
	ninc := e.buildIncarnation(from.gen + 1)
	// Hold a quiescence guard across the handoff: the new tracker is born
	// empty, so without it a concurrent WaitQuiesce could succeed in the
	// instant before the re-activation and replay land.
	guard := ninc.tracker.AcquireFloor(0)
	e.inc = ninc
	e.genMu.Unlock()

	e.startIncarnation(ninc)
	if recovered != nil {
		recovered()
	}
	e.ingestAll(residual, false)
	ninc.tracker.Release(guard)
	ninc.markReady()
	return ninc, resume, len(residual)
}

// FaultKind selects what a planned fault does.
type FaultKind int

const (
	// FaultCrashProcessor crashes processor Proc.
	FaultCrashProcessor FaultKind = iota
	// FaultCrashMaster crashes the master.
	FaultCrashMaster
	// FaultSlowProcessor injects Delay of latency into every commit of
	// processor Proc (the slow-consumer fault; Delay 0 clears it). The
	// slowdown survives recoveries — a restarted processor stays slow.
	FaultSlowProcessor
	// FaultWirePartition hard-partitions the socket substrate (no-op
	// without Config.Wire): outbound frames vanish for Delay, then the
	// partition heals (Delay 0 = until healed manually). The wire ledger
	// replays the backlog exactly once past the ack watermark.
	FaultWirePartition
	// FaultWireCorrupt flips one byte in each outbound wire frame with
	// probability Rate (default 0.02) for Delay, then heals (Delay 0 =
	// until healed manually). Every corruption is caught by the frame CRC
	// and drops its connection; nothing corrupt is ever delivered.
	FaultWireCorrupt
)

// Fault is one entry of a deterministic chaos schedule.
type Fault struct {
	Kind FaultKind
	// Proc is the target processor (FaultCrashProcessor and
	// FaultSlowProcessor).
	Proc int
	// Delay is the injected per-commit latency (FaultSlowProcessor) or the
	// fault window before auto-heal (wire faults).
	Delay time.Duration
	// Rate is the per-frame corruption probability (FaultWireCorrupt only;
	// 0 means the 0.02 default).
	Rate float64
	// AtIteration fires the fault once the terminated frontier reaches this
	// iteration (ignored when OnFork is set).
	AtIteration int64
	// OnFork fires the fault in the middle of the next ForkBranch instead:
	// after the fork spec is captured, before the branch engine exists.
	OnFork bool
}

// FaultPlan is a deterministic chaos schedule: crash processor i at
// iteration k, crash the master, crash mid-branch-fork. Faults fire at most
// once, in the order their conditions are met; faults due at the same moment
// fire in plan order.
type FaultPlan struct {
	Faults []Fault
}

// InjectFaultPlan arms a chaos schedule. A fault whose iteration the
// terminated frontier has already reached fires before the call returns;
// the rest fire once the master has checkpointed the advance that reaches
// them (see fireDueFaults), and OnFork faults inside the next ForkBranch
// call. Plans accumulate.
func (e *Engine) InjectFaultPlan(plan FaultPlan) {
	if len(plan.Faults) == 0 {
		return
	}
	e.planMu.Lock()
	e.pendingFaults = append(e.pendingFaults, plan.Faults...)
	e.planMu.Unlock()
	notified := e.cur().tracker.Notified()
	for _, f := range e.takeFaults(func(f Fault) bool { return !f.OnFork && f.AtIteration <= notified }) {
		e.applyFault(f)
	}
}

// takeFaults disarms and returns, in plan order, the armed faults due
// reports true for.
func (e *Engine) takeFaults(due func(Fault) bool) []Fault {
	e.planMu.Lock()
	defer e.planMu.Unlock()
	var fire []Fault
	rest := e.pendingFaults[:0]
	for _, f := range e.pendingFaults {
		if due(f) {
			fire = append(fire, f)
		} else {
			rest = append(rest, f)
		}
	}
	e.pendingFaults = rest
	return fire
}

// fireDueFaults fires the iteration faults the checkpointed frontier `to`
// has reached. The master calls it after each advance; the faults apply on a
// goroutine of their own, as a crash from outside would, not on the master
// goroutine they may crash.
func (e *Engine) fireDueFaults(to int64) {
	fire := e.takeFaults(func(f Fault) bool { return !f.OnFork && f.AtIteration <= to })
	if len(fire) == 0 {
		return
	}
	e.supWG.Add(1)
	go func() {
		defer e.supWG.Done()
		for _, f := range fire {
			e.applyFault(f)
		}
	}()
}

func (e *Engine) applyFault(f Fault) {
	switch f.Kind {
	case FaultCrashProcessor:
		e.CrashProcessor(f.Proc)
	case FaultCrashMaster:
		e.CrashMaster()
	case FaultSlowProcessor:
		e.SlowProcessor(f.Proc, f.Delay)
	case FaultWirePartition, FaultWireCorrupt:
		e.injectWireFault(f)
	}
}

// fireForkFaults fires all armed OnFork faults; ForkBranch calls it between
// capturing the fork spec and building the branch engine.
func (e *Engine) fireForkFaults() {
	for _, f := range e.takeFaults(func(f Fault) bool { return f.OnFork }) {
		e.applyFault(f)
	}
}
