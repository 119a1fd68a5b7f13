package engine

// Repartitioning (DESIGN.md §16). The paper changes the partitioning scheme
// by stopping the loop: "the master stops the computation before the
// modification to the partitioning scheme; after the partitioning scheme is
// modified, the computation will restart from the last terminated
// iteration" (Section 5.1). Every change of the partition map — Migrate,
// ScaleOut, ScaleIn and Reshard — is that one primitive, repartition:
//
//  1. it closes admission: new Ingest, IngestTraced and IngestAll calls wait
//     at the stop, while calls already past it finish;
//  2. it waits for the loop to come to rest (atRest: the master published
//     quiescence and nothing was acquired since). The checkpoint at the last
//     terminated iteration then equals memory: every input is applied and
//     committed, and a delta loop has persisted its parked pendings;
//  3. it runs the checkpoint restart that crash recovery uses
//     (supervisor.go) under the next plan, with nothing to re-activate, and
//     reopens admission.
//
// Each incarnation routes with one plan, so no frame ever reaches a
// processor that does not own its vertex. Only the restart takes genMu:
// scrapes, StatsSnapshot, PartitionLoads and ForkBranch never wait on the
// drain. A crash or Stop during the wait aborts with ErrMigrationAborted and
// the plan unchanged. The stall — stop to reopening — is what a repartition
// costs the spout (tornado_elastic_migration_seconds).

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"tornado/internal/stream"
)

// Typed errors of the elastic API.
var (
	// ErrNoSpare is returned by ScaleOut when no spare processor slot
	// remains.
	ErrNoSpare = errors.New("engine: no spare processor slot")
	// ErrMigrationAborted is returned when a crash or Stop ended the
	// incarnation a repartition was waiting on; the plan is unchanged.
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
	Quarantined bool // out of rotation for good (the plan's third slot state)
	// Vertices is the number of vertices the slot currently hosts. A
	// restarted loop hosts vertices lazily, as traffic reaches them.
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
	e.genMu.RLock()
	defer e.genMu.RUnlock()
	plan := e.plan.Load()
	out := make([]PartitionLoad, len(e.inc.procs))
	for i, p := range e.inc.procs {
		out[i] = PartitionLoad{
			Proc:        i,
			Active:      plan.Active[i] > 0,
			Quarantined: plan.Active[i] == slotQuarantined,
			Vertices:    p.hostedCount(),
			Commits:     p.commitCount.Load(),
			Updates:     p.updateCount.Load(),
			QueueDepth:  p.deltaDepth.Load(),
		}
	}
	return out
}

// hostedCount is the number of vertices the processor's share holds.
func (p *processor) hostedCount() int {
	p.shareMu.Lock()
	defer p.shareMu.Unlock()
	return len(p.share)
}

// Migrate moves the vertex range r onto processor dest: admission stops, the
// loop comes to rest, and it restarts from its checkpoint under a plan whose
// newest override routes r to dest. It blocks until the restart (or aborts
// with the plan unchanged). Any current owner of a vertex in r gives it up;
// vertices already owned by dest stay put.
func (e *Engine) Migrate(r VertexRange, dest int) error {
	return e.migrate(r, -1, dest, false)
}

// ScaleOut splits the hot processor's partition onto the first spare slot:
// the upper half (by vertex ID) of the vertices it hosts moves, and the
// spare joins the plan. hot < 0 picks the active slot hosting the most
// vertices. It returns the slot scaled onto.
func (e *Engine) ScaleOut(hot int) (int, error) {
	plan := e.plan.Load()
	loads := e.PartitionLoads()
	spare := slices.Index(plan.Active, 0)
	if spare < 0 {
		return -1, ErrNoSpare
	}
	if hot < 0 {
		for _, l := range loads {
			if l.Active && (hot < 0 || l.Vertices > loads[hot].Vertices) {
				hot = l.Proc
			}
		}
	}
	if hot < 0 || hot >= len(plan.Active) || plan.Active[hot] <= 0 {
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

// ScaleIn drains processor slot s — everything it owns moves to the
// least-loaded other active slot — and retires it from the plan.
func (e *Engine) ScaleIn(s int) error {
	plan := e.plan.Load()
	if s < 0 || s >= len(plan.Active) || plan.Active[s] <= 0 {
		return fmt.Errorf("engine: slot %d is not active", s)
	}
	loads := e.PartitionLoads()
	dest := plan.leastLoaded(s, func(i int) int { return loads[i].Vertices })
	if dest < 0 {
		return errors.New("engine: no surviving active slot to drain onto")
	}
	return e.migrate(FullRange(), s, dest, true)
}

// hostedIDs returns the sorted vertex IDs slot proc currently hosts.
func (e *Engine) hostedIDs(proc int) []stream.VertexID {
	p := e.proc(proc)
	if p == nil {
		return nil
	}
	return p.hosted()
}

// migrate repartitions onto the plan with one more override: r's vertices
// owned by from (-1 = any owner) move to dest; retire takes from out of the
// plan (scale-in).
func (e *Engine) migrate(r VertexRange, from, dest int, retire bool) error {
	if e.cfg.Kind != MainLoop {
		return errors.New("engine: Migrate applies to main loops")
	}
	slots := e.plan.Load().Active
	if dest < 0 || dest >= len(slots) {
		return fmt.Errorf("engine: migration destination %d out of range [0,%d)", dest, len(slots))
	}
	if slots[dest] == slotQuarantined {
		return fmt.Errorf("engine: migration destination %d is quarantined", dest)
	}
	ninc, _, err := e.repartition(0, func(p *PartitionPlan) *PartitionPlan {
		return p.withMove(r, from, dest, retire)
	})
	if err != nil {
		return err
	}
	e.migrations.Add(1)
	e.recordEvent(RecoveryEvent{Kind: EventMigration, Proc: dest, Gen: ninc.gen,
		Detail: fmt.Sprintf("epoch %d: [%d,%d] from %d → %d", e.PlanEpoch(), r.Lo, r.Hi, from, dest)})
	return nil
}

// Reshard rebalances the main loop in place onto newProcs processors, the
// paper's Section 5.1: the restart publishes the base partition over
// newProcs — no overrides, no quarantines — on max(newProcs, current) slots.
// settleTimeout bounds the wait for rest; ingestion waits at the stop
// meanwhile, so a spout need not be paused.
func (e *Engine) Reshard(newProcs int, settleTimeout time.Duration) error {
	if e.cfg.Kind != MainLoop || newProcs < 1 {
		return errors.New("engine: Reshard applies to main loops, onto >= 1 processor")
	}
	ninc, resume, err := e.repartition(settleTimeout, func(p *PartitionPlan) *PartitionPlan {
		next := basePlan(newProcs, max(newProcs, len(p.Active)))
		next.Epoch = p.Epoch + 1
		return next
	})
	if err != nil {
		return err
	}
	e.recordEvent(RecoveryEvent{Kind: EventReshard, Proc: -2, Gen: ninc.gen, Resume: resume,
		Detail: fmt.Sprintf("epoch %d: base partition over %d processors", e.PlanEpoch(), newProcs)})
	return nil
}

// repartition is the one way the partition map changes (see the file
// comment): stop admission, wait for rest (at most timeout; 0 waits until
// rest or an abort), restart under next's plan, reopen admission. Holding
// the stop also serializes repartitions. It returns the new incarnation and
// the checkpoint it resumed from.
func (e *Engine) repartition(timeout time.Duration, next func(*PartitionPlan) *PartitionPlan) (*incarnation, int64, error) {
	start := time.Now()
	e.admit.Lock()
	defer func() {
		e.admit.Unlock()
		if e.migDurHist != nil {
			e.migDurHist.Observe(time.Since(start).Seconds())
		}
	}()
	var deadline <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		deadline = t.C
	}
	from := e.cur()
	abort := func(why string) error {
		e.migAborts.Add(1)
		e.recordEvent(RecoveryEvent{Kind: EventMigrationAbort, Proc: -2, Gen: from.gen, Detail: why})
		return fmt.Errorf("%w: %s", ErrMigrationAborted, why)
	}
	for {
		select {
		case <-from.stop:
			return nil, 0, abort("incarnation stopped before the loop came to rest")
		case <-from.down:
			return nil, 0, abort("a member crashed before the loop came to rest")
		default:
		}
		r := e.quiet.Load() // before the check: a later publish closes r.wake
		if e.atRest(from) {
			// restart re-checks rest under genMu: an Activate or an adoption
			// can still land after this read.
			if ninc, resume, _ := e.restart(from, true, next, nil); ninc != nil {
				return ninc, resume, nil
			}
		}
		select {
		case <-r.wake:
		case <-from.stop:
		case <-from.down:
		case <-deadline:
			return nil, 0, abort(fmt.Sprintf("the loop did not come to rest within %v", timeout))
		}
	}
}
