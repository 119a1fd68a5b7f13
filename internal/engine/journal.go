package engine

import (
	"math"
	"sync"

	"tornado/internal/stream"
)

// inputJournal tracks, for the main loop, which external inputs are not yet
// reflected in the snapshot at a given iteration. Entries move through three
// states:
//
//	ingested  — accepted by the ingester, still in flight to the processor
//	applied   — gathered by the destination vertex, commit pending (the
//	            vertex holds the sequence until then)
//	committed — the vertex committed at some iteration; the input's effect
//	            is in the store from that iteration on
//
// A branch forked at iteration i must replay every input that is not
// committed at or before i (Section 5.2: the branch computes over the full
// gathered input even though the approximation lags behind). Inputs replayed
// while still in flight in the main loop are applied by both loops, which is
// consistent: the fork instant includes everything ingested before it.
type inputJournal struct {
	mu sync.Mutex
	// ring holds every retained input by sequence: sequence q in
	// [base, nextSeq) sits at ring[q&(len(ring)-1)] (a power-of-two length
	// that grows with the span). A commit stamps its slots in place; a
	// committed slot stamped at or below pruned is dropped, and base moves
	// past dropped slots. Which vertex applied an input is the vertex's own
	// record (vertex.jseqs).
	ring          []journalSlot
	base, nextSeq uint64
	live, held    int   // slots in state journalLive / journalCommitted
	pruned        int64 // Prune's high-water mark
}

type journalSlot struct {
	tuple stream.Tuple
	iter  int64 // commit iteration, once state is journalCommitted
	state uint8
}

const (
	journalDropped   uint8 = iota // extracted by a recovery (or never used)
	journalLive                   // ingested or applied
	journalCommitted              // in the store from iter on
)

func newInputJournal() *inputJournal {
	return &inputJournal{ring: make([]journalSlot, 256), pruned: math.MinInt64}
}

func (j *inputJournal) slot(seq uint64) *journalSlot { return &j.ring[seq&uint64(len(j.ring)-1)] }

// missingAt reports whether the slot's input is not reflected in the
// snapshot at iteration upTo.
func (s *journalSlot) missingAt(upTo int64) bool {
	return s.state == journalLive || (s.state == journalCommitted && s.iter > upTo)
}

// Ingested registers new inputs under consecutive journal sequences and
// returns the first.
func (j *inputJournal) Ingested(tuples ...stream.Tuple) uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	first := j.nextSeq
	for _, t := range tuples {
		if j.nextSeq-j.base == uint64(len(j.ring)) {
			ring := make([]journalSlot, 2*len(j.ring))
			for q := j.base; q < j.nextSeq; q++ {
				ring[q&uint64(len(ring)-1)] = *j.slot(q)
			}
			j.ring = ring
		}
		*j.slot(j.nextSeq) = journalSlot{tuple: t, state: journalLive}
		j.nextSeq++
	}
	j.live += len(tuples)
	return first
}

// journalStamp is one applied input's commit: its journal sequence and the
// iteration at which its vertex committed.
type journalStamp struct {
	seq  uint64
	iter int64
}

// Committed stamps applied inputs with their vertices' commit iterations (a
// processor hands over one receive window's stamps at a time). Sequences an
// intervening RecoverResidual extracted are skipped.
func (j *inputJournal) Committed(stamps []journalStamp) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, st := range stamps {
		if s := j.slot(st.seq); st.seq >= j.base && st.seq < j.nextSeq && s.state == journalLive {
			s.state, s.iter = journalCommitted, st.iter
			j.live--
			j.held++
		}
	}
}

// Residual returns, in ingest order, every input not reflected in the
// snapshot at forkIter: in-flight and applied inputs, plus inputs committed
// after forkIter.
func (j *inputJournal) Residual(forkIter int64) []stream.Tuple {
	j.mu.Lock()
	defer j.mu.Unlock()
	var out []stream.Tuple
	for q := j.base; q < j.nextSeq; q++ {
		if s := j.slot(q); s.missingAt(forkIter) {
			out = append(out, s.tuple)
		}
	}
	return out
}

// Prune drops committed inputs stamped at or before k. Every future fork
// happens at an iteration >= k (forks happen at the frontier, which only
// advances), so those inputs are in every future snapshot.
func (j *inputJournal) Prune(k int64) {
	j.mu.Lock()
	j.pruned = max(j.pruned, k)
	for j.base < j.nextSeq && !j.slot(j.base).missingAt(j.pruned) {
		if j.slot(j.base).state == journalCommitted {
			j.held--
		}
		*j.slot(j.base) = journalSlot{} // let go of the tuple's value
		j.base++
	}
	j.mu.Unlock()
}

// RecoverResidual extracts, in ingest order, every input whose effect is not
// covered by the checkpoint at resume: all in-flight and applied entries
// (their tokens died with the crashed incarnation) plus inputs committed
// above resume (those versions are truncated before the restart). The
// extracted entries are removed — the recovered incarnation re-ingests them,
// which journals them afresh. Inputs committed at or below resume stay
// retained for future forks.
func (j *inputJournal) RecoverResidual(resume int64) []stream.Tuple {
	j.mu.Lock()
	defer j.mu.Unlock()
	var out []stream.Tuple
	for q := j.base; q < j.nextSeq; q++ {
		if s := j.slot(q); s.missingAt(resume) {
			if out = append(out, s.tuple); s.state == journalCommitted {
				j.held--
			}
			*s = journalSlot{}
		}
	}
	j.live = 0
	return out
}

// Size returns how many entries are uncommitted and how many committed ones
// the ring still holds (a pruned entry leaves once every older one has).
func (j *inputJournal) Size() (uncommitted, committed int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.live, j.held
}
