package engine

// Live vertex-range migration and elastic scaling (ROADMAP item 4).
//
// Reshard (engine.go) reproduces the paper's stop-the-world rebalancing.
// Migrate changes the partition map WITHOUT stopping the main loop:
//
//  1. The coordinator (the Migrate caller itself, receiving on the
//     incarnation's migration endpoint) acquires a floor-0 tracker token —
//     pinning the iteration frontier for the duration — and sends
//     msgMigFreeze to every source processor.
//  2. A frozen source stops starting commits for owned vertices in the
//     range, journals vertex-addressed messages for them (tokens held), and
//     once none of them is mid-prepare ships their full state (msgMigState)
//     to the destination, releasing their dirty tokens (the coordinator's
//     pin covers the gap) and keeping per-vertex tombstones so prepares
//     from producers are still answered.
//  3. The destination installs the state, re-acquiring dirty tokens, and
//     reports msgMigInstalled. Nothing is activated yet: until the plan
//     flips, acks and updates it emitted would be misrouted.
//  4. When every source shipped and the destination installed, the
//     coordinator publishes the next PartitionPlan epoch through the
//     engine's atomic pointer — that store is the cutover: every subsequent
//     route call anywhere resolves the range to the new owner. It then
//     tells sources to forward their freeze journals to the new owner
//     (msgMigCutover) and the destination to start the moved vertices
//     (msgMigActivate, carrying the coordinator's pin token so activation
//     cannot be passed by termination detection).
//
// In-flight frames addressed to the old owner after the cutover bounce:
// every vertex-addressed handler re-routes messages it does not own through
// the (new) plan instead of ghost-creating the vertex (processor.go).
//
// Crash semantics: a migration lives entirely inside one incarnation. If
// any participant dies, the supervisor tears the incarnation down, which
// crashes the coordinator's endpoint mid-Recv — the migration aborts before
// the publish, so the plan pointer still holds the pre-epoch plan, and the
// checkpoint recovery (which replays under that plan) restores exactness.
// After the publish the new plan simply stays: recovery re-activates the
// checkpoint under it, which is just as correct a mapping as the old one.

import (
	"errors"
	"fmt"
	"time"

	"tornado/internal/stream"
	"tornado/internal/transport"
)

// Typed preconditions surfaced by the elastic API (and Reshard).
var (
	// ErrIngestionActive is returned by Reshard when the admission gate
	// still holds admitted-but-unapplied inputs: stopping the loop then
	// would silently lose them.
	ErrIngestionActive = errors.New("engine: ingestion still active")
	// ErrMigrationActive is returned when a migration is already running
	// (one at a time).
	ErrMigrationActive = errors.New("engine: a migration is already in flight")
	// ErrNoSpare is returned by ScaleOut when no inactive processor slot
	// remains below MaxProcessors.
	ErrNoSpare = errors.New("engine: no spare processor slot")
	// ErrMigrationAborted is returned when the incarnation died (crash
	// recovery or Stop) mid-migration; the plan is unchanged.
	ErrMigrationAborted = errors.New("engine: migration aborted")
)

// Elastic recovery-log event kinds.
const (
	EventMigration      = "migration"
	EventMigrationAbort = "migration-abort"
)

// PartitionLoad is one processor slot's live load accounting: the signals
// the split/merge planner weighs.
type PartitionLoad struct {
	Proc        int
	Active      bool // owns part of the current plan
	Quarantined bool
	// Vertices is the number of vertices the slot currently hosts.
	Vertices int
	// Commits / Updates are lifetime totals for this slot (reset by crash
	// recoveries with the incarnation); samplers take deltas.
	Commits int64
	Updates int64
	// QueueDepth is the slot's delta activation-queue depth (0 in value
	// mode).
	QueueDepth int64
}

// PartitionLoads returns per-slot load accounting for every processor slot.
func (e *Engine) PartitionLoads() []PartitionLoad {
	plan := e.plan.Load()
	e.genMu.RLock()
	defer e.genMu.RUnlock()
	out := make([]PartitionLoad, len(e.inc.procs))
	for i, p := range e.inc.procs {
		out[i] = PartitionLoad{Proc: i}
		if i < len(plan.Active) && plan.Active[i] != 0 {
			out[i].Active = true
		}
		if p == nil {
			out[i].Quarantined = true
			continue
		}
		p.shareMu.Lock()
		out[i].Vertices = len(p.share) - len(p.freeSlots)
		p.shareMu.Unlock()
		out[i].Commits = p.commitCount.Load()
		out[i].Updates = p.updateCount.Load()
		out[i].QueueDepth = p.deltaDepth.Load()
	}
	return out
}

// Migrate moves the vertex range r onto processor dest without stopping the
// loop: state ships live, in-flight traffic journal-forwards, and the
// cutover is one atomic plan publish. It blocks until the migration
// completes (or aborts with the plan unchanged). Any current owner of a
// vertex in r is a source; vertices already owned by dest stay put.
func (e *Engine) Migrate(r VertexRange, dest int) error {
	return e.migrate(r, -1, dest, false)
}

// ScaleOut splits the hot processor's partition onto the first spare slot:
// the upper half (by vertex ID) of the vertices it hosts migrates live, and
// the spare joins the plan. hot < 0 picks the active slot hosting the most
// vertices. It returns the slot scaled onto.
func (e *Engine) ScaleOut(hot int) (int, error) {
	plan := e.plan.Load()
	loads := e.PartitionLoads()
	spare := -1
	for _, l := range loads {
		if !l.Active && !l.Quarantined {
			spare = l.Proc
			break
		}
	}
	if spare < 0 {
		return -1, ErrNoSpare
	}
	if hot < 0 {
		for _, l := range loads {
			if l.Active && !l.Quarantined && (hot < 0 || l.Vertices > loads[hot].Vertices) {
				hot = l.Proc
			}
		}
	}
	if hot < 0 || hot >= len(plan.Active) || plan.Active[hot] == 0 {
		return -1, fmt.Errorf("engine: no splittable hot partition (hot=%d)", hot)
	}
	ids := e.hostedIDs(hot)
	if len(ids) < 2 {
		return -1, fmt.Errorf("engine: partition %d hosts %d vertices; nothing to split", hot, len(ids))
	}
	// Split at the median hosted ID: the upper half moves. Range-partitioned
	// deployments get a true range split; hash-partitioned ones still shed
	// roughly half the hot partition's vertices.
	mid := ids[len(ids)/2]
	r := VertexRange{Lo: mid, Hi: FullRange().Hi}
	if err := e.migrate(r, hot, spare, false); err != nil {
		return -1, err
	}
	return spare, nil
}

// ScaleIn drains processor slot s live — everything it owns migrates to the
// least-loaded other active slot — and retires it from the plan.
func (e *Engine) ScaleIn(s int) error {
	plan := e.plan.Load()
	if s < 0 || s >= len(plan.Active) || plan.Active[s] == 0 {
		return fmt.Errorf("engine: slot %d is not active", s)
	}
	dest := -1
	loads := e.PartitionLoads()
	for _, l := range loads {
		if l.Proc == s || !l.Active || l.Quarantined {
			continue
		}
		if dest < 0 || l.Vertices < loads[dest].Vertices {
			dest = l.Proc
		}
	}
	if dest < 0 {
		return errors.New("engine: no surviving active slot to drain onto")
	}
	return e.migrate(FullRange(), s, dest, true)
}

// hostedIDs returns the sorted vertex IDs slot proc currently hosts (per
// its commit/dirty share, filtered by live ownership).
func (e *Engine) hostedIDs(proc int) []stream.VertexID {
	p := e.proc(proc)
	if p == nil {
		return nil
	}
	route := e.cur().route
	return p.hosted(func(s *shareSlot) bool { return route(s.id) == transport.NodeID(proc) })
}

// migrate runs one live migration synchronously: the calling goroutine is
// the coordinator. from filters sources to one owner (-1 = every owner);
// retire removes from from the plan after the cutover (scale-in).
func (e *Engine) migrate(r VertexRange, from, dest int, retire bool) error {
	if e.cfg.Kind != MainLoop {
		return errors.New("engine: Migrate applies to main loops")
	}
	if dest < 0 || dest >= e.cfg.MaxProcessors {
		return fmt.Errorf("engine: migration destination %d out of range [0,%d)", dest, e.cfg.MaxProcessors)
	}
	e.migMu.Lock()
	if e.migActive {
		e.migMu.Unlock()
		return ErrMigrationActive
	}
	e.migActive = true
	e.migSeq++
	seq := e.migSeq
	e.migMu.Unlock()
	defer func() {
		e.migMu.Lock()
		e.migActive = false
		e.migMu.Unlock()
	}()

	e.genMu.RLock()
	inc := e.inc
	stopped := e.stopped
	var destProc *processor
	if dest < len(inc.procs) {
		destProc = inc.procs[dest]
	}
	e.genMu.RUnlock()
	if stopped {
		return errors.New("engine: migrate on a stopped engine")
	}
	if destProc == nil {
		return fmt.Errorf("engine: migration destination %d is quarantined", dest)
	}
	var sources []int
	for i, p := range inc.procs {
		if p == nil || i == dest {
			continue
		}
		if from >= 0 && i != from {
			continue
		}
		sources = append(sources, i)
	}
	if len(sources) == 0 {
		return errors.New("engine: no live source processors")
	}

	start := time.Now()
	// Pin the frontier for the whole migration: no iteration can terminate
	// while the pin is held, so the dirty tokens sources release at ship
	// cannot be passed by termination before the destination re-acquires
	// them at install, and the cutover can never land inside a checkpoint.
	pin := inc.tracker.AcquireFloor(0)
	abort := func(why string) error {
		inc.tracker.Release(pin)
		e.migAborts.Inc()
		e.recordEvent(RecoveryEvent{Kind: EventMigrationAbort, Proc: dest, Gen: inc.gen,
			Detail: fmt.Sprintf("seq %d [%d,%d]→%d: %s", seq, r.Lo, r.Hi, dest, why)})
		return fmt.Errorf("%w: %s", ErrMigrationAborted, why)
	}

	freeze := msgMigFreeze{Seq: seq, R: r, From: from, Dest: dest, NumSources: len(sources)}
	for _, s := range sources {
		inc.migE.Send(transport.NodeID(s), freeze)
	}
	inc.migE.Flush()

	// Chaos hook: an armed FaultCrashDuringMigration fires here — the range
	// is frozen, state is about to ship, the cutover has not happened.
	if arm := e.migCrashArm.Swap(0); arm > 0 {
		e.CrashProcessor(int(arm - 1))
	}

	// Collect ships and the install. Stale or duplicate frames (earlier
	// seqs, at-least-once redelivery) are filtered by seq and idempotent
	// counting. A dead incarnation crashes the endpoint and aborts here.
	shipped := make(map[int]bool, len(sources))
	installed := false
	moved := 0
	for len(shipped) < len(sources) || !installed {
		env, ok := inc.migE.Recv()
		if !ok {
			return abort("incarnation torn down before cutover")
		}
		switch m := env.Payload.(type) {
		case msgMigShipped:
			if m.Seq == seq && !shipped[m.Source] {
				shipped[m.Source] = true
				moved += m.Count
			}
		case msgMigInstalled:
			if m.Seq == seq {
				installed = true
			}
		}
	}

	// THE cutover: one atomic pointer store. Every route call after this —
	// any processor, the ingester, recovery's ActivateStored — resolves the
	// range to dest.
	next := e.plan.Load().withMove(r, from, dest, retire)
	e.plan.Store(next)

	for _, s := range sources {
		inc.migE.Send(transport.NodeID(s), msgMigCutover{Seq: seq})
	}
	// The pin token rides to the destination: it is released there after
	// the moved vertices are scheduled, so the loop can never look
	// quiescent with a significant migrated pending not yet queued.
	inc.migE.Send(transport.NodeID(dest), msgMigActivate{Seq: seq, Token: pin})
	inc.migE.Flush()

	e.migrations.Inc()
	e.migratedVerts.Add(int64(moved))
	if e.migDurHist != nil {
		e.migDurHist.Observe(time.Since(start).Seconds())
	}
	e.recordEvent(RecoveryEvent{Kind: EventMigration, Proc: dest, Gen: inc.gen,
		Detail: fmt.Sprintf("seq %d epoch %d: [%d,%d] from %d → %d (%d vertices, %d sources)",
			seq, next.Epoch, r.Lo, r.Hi, from, dest, moved, len(sources))})
	return nil
}
