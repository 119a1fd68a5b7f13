package engine

import (
	"fmt"
	"strings"
	"testing"
	"time"
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
		t.Fatalf("quiescent loop holds %d tokens\n%s", n, tokenDump(e, inc))
	}
	if n := e.pendingPrepares.Load(); n != 0 {
		t.Fatalf("quiescent loop has %d prepares pending", n)
	}
	e.Stop()
	applied := 0
	for _, p := range inc.procs {
		queued := 0
		for _, w := range p.out.win {
			queued += len(w.Tags)
		}
		if queued != 0 || p.deltaDepth.Load() != 0 {
			t.Fatalf("processor %d: %d queued messages, activation depth %d", p.idx, queued, p.deltaDepth.Load())
		}
		if n := len(p.share); n != len(p.vertices) {
			t.Fatalf("processor %d: %d share slots for %d vertices", p.idx, n, len(p.vertices))
		}
		for id, v := range p.vertices {
			waiting, preparing := 0, 0
			for i, o := range v.out {
				if i > 0 && v.out[i-1].to >= o.to {
					t.Fatalf("vertex %d: out records not ascending at %d", id, i)
				}
				if o.flags&edgeOwesAck != 0 {
					waiting++
				}
				if o.flags&edgeEmitted != 0 || (o.flags&edgePresent != 0 && o.flags&edgeRemoved != 0) ||
					(o.flags&edgeAdded != 0 && o.flags&edgePresent == 0) {
					t.Fatalf("vertex %d: edge record %+v is inconsistent", id, o)
				}
			}
			for i, in := range v.in {
				if i > 0 && v.in[i-1].from >= in.from {
					t.Fatalf("vertex %d: in records not ascending at %d", id, i)
				}
				if in.preparing {
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
			// A shell has only answered PREPAREs and absorbed valueless
			// COMMITs: anything else would have loaded it first.
			if v.unloaded && (v.state != nil || len(v.out) != 0 || v.dirty || v.preparing() ||
				len(v.jseqs) != 0 || v.hasPending || v.pending != nil) {
				t.Fatalf("vertex %d is an unloaded shell holding state %v, %d out records, dirty %v, preparing %v, %d jseqs, pending %v",
					id, v.state, len(v.out), v.dirty, v.preparing(), len(v.jseqs), v.hasPending)
			}
			if s := p.share[v.slot]; s != (shareSlot{id: id, lastCommit: v.lastCommit}) {
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

// tokenDump says where a failed audit's tokens sit: which incarnation holds
// them (a restart after the test's WaitQuiesce leaves its guard,
// re-activations and residual replay in a fresh tracker), their iterations,
// and the recovery log's tail with timestamps to set against the audit's.
func tokenDump(e *Engine, inc *incarnation) string {
	var b strings.Builder
	s := e.StatsSnapshot()
	fmt.Fprintf(&b, "audit at %s: generation %d (crashes %d, recoveries %d)\n",
		time.Now().Format("15:04:05.000000"), inc.gen, s.Crashes, s.Recoveries)
	tk := inc.tracker
	tk.mu.Lock()
	fmt.Fprintf(&b, "tracker: live %d notified %d maxSeen %d; tokens by iteration:", tk.live, tk.notified, tk.maxSeen)
	for i := tk.base; i <= tk.top; i++ {
		if n := tk.at(i).tokens; n != 0 {
			fmt.Fprintf(&b, " %d:%d", i, n)
		}
	}
	tk.mu.Unlock()
	for _, ev := range tail(e.RecoveryLog(), 8) {
		fmt.Fprintf(&b, "\n  %s %s proc %d gen %d resume %d %s",
			ev.Time.Format("15:04:05.000000"), ev.Kind, ev.Proc, ev.Gen, ev.Resume, ev.Detail)
	}
	return b.String()
}
