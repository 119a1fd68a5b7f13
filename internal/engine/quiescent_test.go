package engine

import (
	"testing"
)

// checkQuiescent audits a loop a test has just seen quiesce, and stops it
// (the audit reads processor-confined state, which is only safe once the
// processor goroutines have exited; call it last). No obligation may be
// left anywhere — tokens, owed acks, dirty share slots, queued messages —
// and every counter the inner loop maintains incrementally must equal a
// recount of the records it summarizes.
func checkQuiescent(t *testing.T, e *Engine) {
	t.Helper()
	inc := e.cur()
	if n := inc.tracker.TokenCount(); n != 0 {
		t.Fatalf("quiescent loop holds %d tokens", n)
	}
	if n := e.pendingPrepares.Load(); n != 0 {
		t.Fatalf("quiescent loop has %d prepares pending", n)
	}
	e.Stop()
	applied := 0
	for _, p := range inc.procs {
		if p == nil {
			continue // quarantined
		}
		queued := 0
		for _, w := range p.out.win {
			queued += len(w.Tags)
		}
		if queued != 0 || p.deltaDepth.Load() != 0 || p.mig != nil || p.migIn != nil {
			t.Fatalf("processor %d: %d queued messages, activation depth %d, migration %v/%v",
				p.idx, queued, p.deltaDepth.Load(), p.mig != nil, p.migIn != nil)
		}
		if n := len(p.share) - len(p.freeSlots); n != len(p.vertices) {
			t.Fatalf("processor %d: %d live share slots for %d vertices", p.idx, n, len(p.vertices))
		}
		for id, v := range p.vertices {
			waiting, preparing := 0, 0
			for i, o := range v.out {
				if i > 0 && v.out[i-1].To >= o.To {
					t.Fatalf("vertex %d: out records not ascending at %d", id, i)
				}
				if o.Flags&edgeOwesAck != 0 {
					waiting++
				}
				if o.Flags&edgeEmitted != 0 || (o.Flags&edgePresent != 0 && o.Flags&edgeRemoved != 0) ||
					(o.Flags&edgeAdded != 0 && o.Flags&edgePresent == 0) {
					t.Fatalf("vertex %d: edge record %+v is inconsistent", id, o)
				}
			}
			for i, in := range v.in {
				if i > 0 && v.in[i-1].From >= in.From {
					t.Fatalf("vertex %d: in records not ascending at %d", id, i)
				}
				if in.Preparing {
					preparing++
				}
			}
			if waiting != 0 || v.nwaiting != 0 || v.npreparing != preparing {
				t.Fatalf("vertex %d: nwaiting %d (recount %d), npreparing %d (recount %d)", id, v.nwaiting, waiting, v.npreparing, preparing)
			}
			if v.dirty || v.preparing() || v.dirtyToken >= 0 || v.capBlocked || len(v.holdInput) != 0 || len(v.pendingAcks) != 0 {
				t.Fatalf("vertex %d is mid-update: dirty %v preparing %v token %d capBlocked %v held %d deferred acks %d",
					id, v.dirty, v.preparing(), v.dirtyToken, v.capBlocked, len(v.holdInput), len(v.pendingAcks))
			}
			if s := p.share[v.slot]; s != (shareSlot{id: id, lastCommit: v.lastCommit, live: true}) {
				t.Fatalf("vertex %d (last commit %d): share slot %d holds %+v", id, v.lastCommit, v.slot, s)
			}
			applied += len(v.jseqs)
		}
	}
	// Every input has been applied, so an uncommitted journal entry is on
	// exactly one vertex's list (an edge operation the event-time gate
	// discarded stays there until the vertex next commits).
	if e.journal != nil {
		if un, _ := e.journal.Size(); un != applied {
			t.Fatalf("journal holds %d uncommitted inputs; the vertices hold %d applied sequences", un, applied)
		}
	}
}
