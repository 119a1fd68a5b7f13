package engine

import (
	"errors"
	"fmt"
	"math"
	"time"

	"tornado/internal/stream"
)

// msgAdopt instructs a vertex to replace its state with a merged branch
// result, committed at the given iteration. It is the merge counterpart of a
// commit: the version is persisted, but nothing is scattered (the adopted
// state is already a fixed point, so consumers hold consistent values).
type msgAdopt struct {
	To          stream.VertexID
	State       any
	Targets     []stream.VertexID
	TargetClock map[stream.VertexID]stream.Timestamp
	Iteration   int64
	Token       int64
}

// ErrMergeConflict is returned by AdoptBranch when the main loop received
// new inputs while the merge was in flight; per Section 5.2 the merge is
// only valid "if there are no inputs gathered during the computation of the
// branch loop".
var ErrMergeConflict = errors.New("engine: inputs arrived during branch merge")

// AdoptBranch merges a converged branch loop's results back into this (main)
// loop, improving its approximation (Section 5.2): the branch's states are
// written at iteration lastTerminated + B, so no in-flight version can
// overwrite them (update iterations never exceed the cap). The caller must
// pause ingestion around the call; if the loop is not quiescent before and
// after the merge, the merge is aborted with ErrMergeConflict and the main
// loop continues unchanged (its own states were not touched yet).
func (e *Engine) AdoptBranch(br *Engine) error {
	if e.cfg.Kind != MainLoop {
		return errors.New("engine: AdoptBranch target must be a main loop")
	}
	select {
	case <-br.done:
	default:
		return errors.New("engine: branch has not converged")
	}
	// Snapshot the incarnation once: if a checkpoint restart replaces it
	// while the merge is in flight, the adoptions are refused or land on dead
	// endpoints and the post-merge quiescence check runs against the new
	// incarnation, which has recomputed its pre-merge state — the merge simply
	// degrades to a no-op or a conflict, never to corruption.
	inc := e.cur()
	if !e.atRest(inc) {
		return fmt.Errorf("%w: loop not quiescent at merge start", ErrMergeConflict)
	}
	// The merge is valid only if no inputs arrived since the FORK (not just
	// since the merge started): anything newer would be overwritten by the
	// branch's older fixed point.
	journalBefore := br.forkJournalSeq
	if e.journalSeq() != journalBefore {
		return ErrMergeConflict
	}

	// Adopted versions must land above anything an in-flight commit could
	// still write within B of the frontier.
	mergeIter := inc.tracker.Notified() + e.cfg.DelayBound
	release := e.HoldQuiesce()
	defer release()

	// Collect the branch's full overlay (its own commits over the fork
	// snapshot) and hand each vertex its merged state.
	type adoption struct {
		id      stream.VertexID
		state   any
		targets []stream.VertexID
		clock   map[stream.VertexID]stream.Timestamp
	}
	var adoptions []adoption
	err := br.scanBlobs(math.MaxInt64, func(id stream.VertexID, _ int64, blob VertexBlob) error {
		adoptions = append(adoptions, adoption{id: id, state: blob.State, targets: blob.Targets, clock: blob.TargetClock})
		return nil
	})
	if err != nil {
		return err
	}
	if e.journalSeq() != journalBefore {
		return ErrMergeConflict
	}
	// Route under the generation lock: the plan must still be the one inc's
	// outboxes were sized for.
	e.genMu.RLock()
	if e.inc != inc {
		e.genMu.RUnlock()
		return fmt.Errorf("%w: loop restarted during merge", ErrMergeConflict)
	}
	out := inc.ingestOut()
	for _, a := range adoptions {
		tok := inc.tracker.AcquireFloor(mergeIter)
		out.win[e.owner(a.id)].addAdopt(msgAdopt{
			To: a.id, State: a.state, Targets: a.targets, TargetClock: a.clock,
			Iteration: mergeIter, Token: tok,
		})
	}
	e.ingestShip(inc, out)
	e.genMu.RUnlock()
	release()
	if err := e.WaitQuiesce(time.Minute); err != nil {
		return err
	}
	if e.journalSeq() != journalBefore {
		return ErrMergeConflict
	}
	return nil
}

// JournalSeq returns the number of inputs ever ingested (main loops only;
// zero otherwise). It is the freshness clock of the query service: a branch
// forked at sequence S reflects exactly the first S inputs.
func (e *Engine) JournalSeq() uint64 { return e.journalSeq() }

// journalSeq returns the number of inputs ever ingested (main loops only).
func (e *Engine) journalSeq() uint64 {
	if e.journal == nil {
		return 0
	}
	e.journal.mu.Lock()
	defer e.journal.mu.Unlock()
	return e.journal.nextSeq
}

// handleAdopt applies a merged state on the owning processor.
func (p *processor) handleAdopt(m msgAdopt) {
	v := p.ensure(m.To)
	// A dirty or preparing vertex means inputs raced the merge; skip the
	// adoption for this vertex — the merge driver detects the conflict via
	// the journal and reports it.
	if !v.dirty && !v.preparing() && v.npreparing == 0 {
		v.state = m.State
		if p.dp != nil {
			// The adopted state is the branch's fixed point over its own
			// gathered inputs; a pending accumulated against the PRE-merge
			// per-producer records would double-count when folded into it.
			// Drop it (and its queued activation, releasing the parked
			// token) — producers re-sending cumulative values after the
			// merge diff against the adopted records exactly.
			v.pending, v.hasPending = nil, false
			if it, ok := p.actQ.Remove(v.id); ok {
				p.deltaDepth.Add(-1)
				p.ledger.tokens.Release(it.Token)
			}
		}
		v.setTargets(m.Targets, m.TargetClock)
		if m.Iteration > v.iter {
			v.iter = m.Iteration
		}
		v.lastCommit = m.Iteration
		p.persist(v, m.Iteration)
		p.ledger.tokens.RecordCommit(m.Iteration, 0)
		p.ledger.stats.Commits++
		p.shareMu.Lock()
		p.share[v.slot].lastCommit = m.Iteration
		p.shareMu.Unlock()
	}
	p.ledger.tokens.Release(m.Token)
}
