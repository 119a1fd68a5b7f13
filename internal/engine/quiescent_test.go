package engine

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"tornado/internal/datasets"
	"tornado/internal/storage"
)

// ledgerEmpty reports whether a processor's window ledger holds nothing it
// has not published.
func ledgerEmpty(p *processor) bool {
	l := &p.ledger
	return l.tokens.Empty() && len(l.stamps) == 0 && l.credits == 0 && l.prepares == 0 &&
		l.stats == (statCounts{}) && l.commits == 0 && l.updates == 0
}

// checkQuiescent audits a loop a test has just seen quiesce, and stops it
// (the audit reads processor-confined state, which is only safe once the
// processor goroutines have exited; call it last). No obligation may be
// left anywhere — tokens, owed acks, dirty share slots, queued messages —
// and every counter the inner loop maintains incrementally must equal a
// recount of the records it summarizes. The published PREPARE gauge reads 0,
// and every processor exited with its window ledger published.
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
		if !ledgerEmpty(p) {
			t.Fatalf("processor %d exited holding an unpublished ledger %+v", p.idx, p.ledger)
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

// TestPauseNeverHidesARelease pauses a processor again and again while a
// burst streams in: each time it parks, its window ledger has been published
// — the tracker already holds every release it made before parking, and the
// journal, gate and counters every other write — so a paused processor holds
// the frontier back only by the obligations it really keeps.
func TestPauseNeverHidesARelease(t *testing.T) {
	tuples := datasets.PowerLawGraph(2000, 4, 31)
	e := newSSSPEngine(t, 2, 4, storage.NewMVCCStore(), storage.MainLoop)
	e.Start()
	stop := make(chan struct{})
	fed := make(chan struct{})
	go func() { // the burst, in chunks, for as long as the pauses last
		defer close(fed)
		for i := 0; ; i = (i + 200) % len(tuples) {
			select {
			case <-stop:
				return
			default:
			}
			e.IngestAll(tuples[i:min(i+200, len(tuples))])
			time.Sleep(200 * time.Microsecond)
		}
	}()
	p := e.proc(1)
	parks := 0
	for round := 0; round < 40; round++ {
		e.PauseProcessor(1)
		for deadline := time.Now().Add(waitFor); ; time.Sleep(50 * time.Microsecond) {
			p.pauseMu.Lock() // the parked goroutine wrote its ledger before taking it
			parked := p.parked
			empty := parked && ledgerEmpty(p)
			p.pauseMu.Unlock()
			if parked {
				if !empty {
					t.Fatalf("round %d: processor 1 parked holding an unpublished ledger %+v", round, p.ledger)
				}
				parks++
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("round %d: processor 1 never parked while the burst streamed in", round)
			}
		}
		time.Sleep(time.Duration(round%4) * time.Millisecond)
		e.ResumeProcessor(1)
		time.Sleep(time.Millisecond)
	}
	close(stop)
	<-fed
	if err := e.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	if parks != 40 {
		t.Fatalf("processor 1 parked %d times in 40 pauses", parks)
	}
	checkSSSP(t, e, tuples)
	checkQuiescent(t, e)
}
