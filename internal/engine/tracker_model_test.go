package engine

import (
	"math/rand"
	"slices"
	"testing"
)

// mapTracker is the Tracker as it was before the ring — one map per
// question, the minimum found by a scan — kept as the oracle the ring is
// tested against. Single-goroutine: no lock, and Advance reports "would
// block" instead of waiting.
type mapTracker struct {
	counts          map[int64]int64
	commits         map[int64]int64
	progress        map[int64]float64
	notified        int64
	maxSeen         int64
	acquired        int64
	quiesceReported bool
}

func newMapTracker(base int64) *mapTracker {
	return &mapTracker{counts: map[int64]int64{}, commits: map[int64]int64{}, progress: map[int64]float64{},
		notified: base - 1, maxSeen: base - 1}
}

func (t *mapTracker) acquireFloorN(iter int64, n int) int64 {
	if iter <= t.notified {
		iter = t.notified + 1
	}
	t.quiesceReported = false
	t.acquired++
	t.counts[iter] += int64(n)
	t.maxSeen = max(t.maxSeen, iter)
	return iter
}

// release reports whether a token was there to release.
func (t *mapTracker) release(iter int64) bool {
	n := t.counts[iter]
	if n <= 0 {
		return false
	}
	if n == 1 {
		delete(t.counts, iter)
	} else {
		t.counts[iter] = n - 1
	}
	return true
}

func (t *mapTracker) poll() (int64, bool) {
	if len(t.counts) == 0 {
		return t.maxSeen, true
	}
	low := int64(1<<63 - 1)
	for k := range t.counts {
		low = min(low, k)
	}
	return low - 1, false
}

// advance is Advance without the wait: blocks reports that the real call
// would have parked.
func (t *mapTracker) advance() (from, to int64, quiesced, blocks bool) {
	upTo, quiet := t.poll()
	switch {
	case upTo > t.notified:
		from, t.notified = t.notified+1, upTo
		t.quiesceReported = t.quiesceReported || quiet
		return from, upTo, quiet, false
	case quiet && !t.quiesceReported:
		t.quiesceReported = true
		return t.notified + 1, t.notified, true, false
	}
	return 0, 0, quiet, true
}

func (t *mapTracker) dropStatsThrough(k int64) {
	for i := range t.commits {
		if i <= k {
			delete(t.commits, i)
			delete(t.progress, i)
		}
	}
}

func (t *mapTracker) frontier() int64 {
	upTo, quiet := t.poll()
	if quiet {
		return t.notified + 1
	}
	return upTo + 1
}

func (t *mapTracker) tokenCount() (n int64) {
	for _, c := range t.counts {
		n += c
	}
	return n
}

// TestTrackerRingAgainstMapModel runs random acquire / release / commit /
// advance / drop sequences against both trackers and compares every
// observable after every step. Some trials place tokens within a small delay
// bound of the frontier, others spread them over 1<<20 iterations, which
// takes the ring through growth, wrap-around and shrinking.
func TestTrackerRingAgainstMapModel(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		base := int64(rng.Intn(3) * 1000)
		spread := int64(8)
		if trial%4 == 3 {
			spread = 1 << 20
		}
		tr, model := NewTracker(base), newMapTracker(base)
		var held []int64 // placements of the tokens outstanding
		maxRing := len(tr.ring)

		for op := 0; op < 3000; op++ {
			switch k := rng.Intn(12); {
			case k < 4: // acquire, one or many
				iter, n := tr.Notified()-2+rng.Int63n(spread), 1+rng.Intn(3)*rng.Intn(5)
				got, want := tr.AcquireFloorN(iter, n), model.acquireFloorN(iter, n)
				if n == 1 {
					tr.Release(tr.AcquireFloor(iter)) // the single-token form, there and back
					model.acquired++
				}
				if got != want {
					t.Fatalf("trial %d op %d: AcquireFloorN(%d, %d) = %d; model %d", trial, op, iter, n, got, want)
				}
				for ; n > 0; n-- {
					held = append(held, got)
				}
			case k < 8: // release a held token
				if len(held) > 0 {
					i := rng.Intn(len(held))
					tr.Release(held[i])
					if !model.release(held[i]) {
						t.Fatalf("trial %d op %d: model holds no token at %d", trial, op, held[i])
					}
					held[i] = held[len(held)-1]
					held = held[:len(held)-1]
				}
			case k == 8: // a commit recorded under a held token, at or above it
				if len(held) > 0 {
					iter, prog := held[rng.Intn(len(held))]+rng.Int63n(3), float64(rng.Intn(5))
					var l TokenLedger
					l.RecordCommit(iter, prog)
					tr.Publish(&l)
					model.commits[iter]++
					model.progress[iter] += prog
				}
			case k == 9 || k == 10: // the master: advance when it would not block, read and drop the stats
				wf, wt, wq, blocks := model.advance()
				if blocks {
					break
				}
				from, to, acquired, quiesced, ok := tr.Advance()
				if !ok || from != wf || to != wt || quiesced != wq {
					t.Fatalf("trial %d op %d: Advance = %d..%d %v %v; model %d..%d %v", trial, op, from, to, quiesced, ok, wf, wt, wq)
				}
				// The record the master publishes: a quiescent report has
				// announced every iteration that ever held a token, at the
				// acquisition count it saw.
				if quiesced && (tr.Notified() < model.maxSeen || acquired != model.acquired) {
					t.Fatalf("trial %d op %d: quiescent report at notified %d, acquired %d; model maxSeen %d, acquired %d",
						trial, op, tr.Notified(), acquired, model.maxSeen, model.acquired)
				}
				for i := from; i <= to && i < from+50; i++ {
					c, pr := tr.IterStats(i)
					if c != model.commits[i] || pr != model.progress[i] {
						t.Fatalf("trial %d op %d: IterStats(%d) = %d, %v; model %d, %v", trial, op, i, c, pr, model.commits[i], model.progress[i])
					}
				}
				if rng.Intn(3) > 0 {
					tr.DropStatsThrough(to)
					model.dropStatsThrough(to)
				}
			default: // drop at an arbitrary point, past the frontier at times
				k := tr.Notified() - 3 + rng.Int63n(8)
				tr.DropStatsThrough(k)
				model.dropStatsThrough(k)
			}
			maxRing = max(maxRing, len(tr.ring))

			if tr.Notified() != model.notified || tr.Frontier() != model.frontier() || tr.TokenCount() != model.tokenCount() ||
				tr.Acquired() != model.acquired {
				t.Fatalf("trial %d op %d: notified %d frontier %d tokens %d acquired %d; model %d %d %d %d",
					trial, op, tr.Notified(), tr.Frontier(), tr.TokenCount(), tr.Acquired(),
					model.notified, model.frontier(), model.tokenCount(), model.acquired)
			}
			wantLag := max(model.maxSeen-model.frontier()+1, 0)
			if got := tr.FrontierLag(); got != wantLag {
				t.Fatalf("trial %d op %d: FrontierLag = %d; model %d", trial, op, got, wantLag)
			}
			// A statistic the master has not dropped reads the same wherever it sits.
			probe := tr.Notified() - 4 + rng.Int63n(spread+8)
			if c, pr := tr.IterStats(probe); c != model.commits[probe] || pr != model.progress[probe] {
				t.Fatalf("trial %d op %d: IterStats(%d) = %d, %v; model %d, %v", trial, op, probe, c, pr, model.commits[probe], model.progress[probe])
			}
		}

		// Drain: release everything, let the master catch up, and the ring
		// must be back at its floor.
		for _, iter := range held {
			tr.Release(iter)
			model.release(iter)
		}
		for {
			_, wt, _, blocks := model.advance()
			if blocks {
				break
			}
			if _, to, _, _, ok := tr.Advance(); !ok || to != wt {
				t.Fatalf("trial %d: draining Advance -> %d, %v; model %d", trial, to, ok, wt)
			}
			tr.DropStatsThrough(wt)
		}
		if settled := tr.TokenCount() == 0 && tr.Notified() >= model.maxSeen; !settled || len(tr.ring) != minTrackerRing {
			t.Fatalf("trial %d: settled %v with a ring of %d cells (peak %d); want %d", trial, settled, len(tr.ring), maxRing, minTrackerRing)
		}
		if spread > minTrackerRing && maxRing == minTrackerRing {
			t.Fatalf("trial %d spread tokens over %d iterations and never grew the ring", trial, spread)
		}
		expectPanic(t, "Release without acquire", func() { tr.Release(tr.Notified() + 1) })
		expectPanic(t, "Release below the floor", func() { tr.Release(base - 5) })
	}
}

// ledgerProc is one processor of TestTokenLedgerAgainstEagerModel: the tokens
// it holds, the ones it released since its last publish, and the message
// tokens its window ships after that publish.
type ledgerProc struct {
	ledger   TokenLedger
	held     []int64
	released []int64
	outgoing []int64
}

// cover returns a token the processor may defer an acquisition at or above:
// one it holds or released since its last publish. Either stays in the
// tracker until that publish (a token acquired in the window is itself
// covered), which counts the window's acquisitions along with its releases.
func (p *ledgerProc) cover(rng *rand.Rand) (int64, bool) {
	n := len(p.held) + len(p.released)
	if n == 0 {
		return 0, false
	}
	i := rng.Intn(n)
	if i < len(p.held) {
		return p.held[i], true
	}
	return p.released[i-len(p.held)], true
}

// TestTokenLedgerAgainstEagerModel runs random receive windows against a
// tracker fed through per-processor ledgers and the eager map model fed every
// operation at once. Processors defer acquisitions only by the ledger rule
// (at or above a token they hold or released in the window), defer every
// release and commit record, and publish at random; message tokens acquired
// in a window reach their receiver only after the sender published. After
// every step the master never announces an iteration the model still holds
// work at, an announced iteration's statistics are complete, and once every
// ledger is published the two trackers hold the same tokens.
func TestTokenLedgerAgainstEagerModel(t *testing.T) {
	for trial := 0; trial < 60; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		base := int64(rng.Intn(3) * 100)
		tr, model := NewTracker(base), newMapTracker(base) // the model's master never advances
		announced := int64(0)
		procs := make([]*ledgerProc, 1+rng.Intn(4))
		for i := range procs {
			procs[i] = &ledgerProc{}
		}
		pending := func() bool {
			for _, p := range procs {
				if !p.ledger.Empty() {
					return true
				}
			}
			return false
		}
		take := func(set *[]int64, i int) int64 {
			it := (*set)[i]
			(*set)[i] = (*set)[len(*set)-1]
			*set = (*set)[:len(*set)-1]
			return it
		}
		publish := func(p *ledgerProc) {
			tr.Publish(&p.ledger)
			if !p.ledger.Empty() {
				t.Fatalf("trial %d: Publish left the ledger holding %d cells", trial, len(p.ledger.cells))
			}
			p.released = p.released[:0]
			for _, it := range p.outgoing {
				q := procs[rng.Intn(len(procs))]
				q.held = append(q.held, it)
			}
			p.outgoing = p.outgoing[:0]
		}

		for op := 0; op < 2000; op++ {
			p := procs[rng.Intn(len(procs))]
			switch k := rng.Intn(16); {
			case k < 1: // an input or an unsupported acquisition: placed at once
				iter, n := tr.Notified()-1+rng.Int63n(6), 1+rng.Intn(3)
				got := tr.AcquireFloorN(iter, n)
				model.acquireFloorN(got, n)
				for ; n > 0; n-- {
					p.held = append(p.held, got)
				}
			case k < 4: // a deferred acquisition: a dirty token, or a commit's message tokens
				c, ok := p.cover(rng)
				if !ok {
					break
				}
				iter, n := c+rng.Int63n(3), 1+rng.Intn(3)*rng.Intn(2)
				p.ledger.Acquire(iter, n)
				model.acquireFloorN(iter, n)
				msgs := rng.Intn(2) == 0
				for ; n > 0; n-- {
					if msgs {
						p.outgoing = append(p.outgoing, iter)
					} else {
						p.held = append(p.held, iter)
					}
				}
			case k < 10: // a release
				if len(p.held) > 0 {
					i := rng.Intn(len(p.held))
					if rng.Intn(2) == 0 { // mostly the oldest obligation, as a loop's progress goes
						i = slices.Index(p.held, slices.Min(p.held))
					}
					it := take(&p.held, i)
					p.ledger.Release(it)
					if !model.release(it) {
						t.Fatalf("trial %d op %d: model holds no token at %d", trial, op, it)
					}
					p.released = append(p.released, it)
				}
			case k == 10: // a commit recorded under a held token, at or above it
				if len(p.held) > 0 {
					iter, prog := p.held[rng.Intn(len(p.held))]+rng.Int63n(3), float64(rng.Intn(5))
					p.ledger.RecordCommit(iter, prog)
					model.commits[iter]++
					model.progress[iter] += prog
				}
			case k < 14: // the window ends
				publish(p)
			default: // the master, when it would not block
				if tr.TokenCount() == 0 || tr.Frontier()-1 <= tr.Notified() {
					break
				}
				from, to, _, _, ok := tr.Advance()
				if !ok {
					t.Fatalf("trial %d op %d: Advance on an open tracker failed", trial, op)
				}
				announced += to - from + 1
				for i := from; i <= to; i++ {
					if c, pr := tr.IterStats(i); c != model.commits[i] || pr != model.progress[i] {
						t.Fatalf("trial %d op %d: iteration %d announced with stats %d, %v; model %d, %v (a commit record lagged its release)",
							trial, op, i, c, pr, model.commits[i], model.progress[i])
					}
				}
			}

			// Safety: wherever the model holds work, the batched tracker holds
			// a token at or below it, so nothing there is announced.
			if upTo, quiet := model.poll(); !quiet {
				if tr.TokenCount() == 0 || tr.Frontier() > upTo+1 || tr.Notified() > upTo {
					t.Fatalf("trial %d op %d: tracker frontier %d (tokens %d, notified %d) passed the model's %d",
						trial, op, tr.Frontier(), tr.TokenCount(), tr.Notified(), upTo+1)
				}
			}
			// Liveness: with every ledger published the two agree exactly.
			if !pending() {
				upTo, quiet := model.poll()
				wantFrontier := upTo + 1
				if quiet {
					wantFrontier = tr.Notified() + 1
				}
				if tr.TokenCount() != model.tokenCount() || tr.Frontier() != wantFrontier || tr.Acquired() != model.acquired {
					t.Fatalf("trial %d op %d: all published, tracker tokens %d frontier %d acquired %d; model %d %d %d",
						trial, op, tr.TokenCount(), tr.Frontier(), tr.Acquired(), model.tokenCount(), wantFrontier, model.acquired)
				}
				for it, n := range model.counts {
					if it >= tr.base && tr.at(it).tokens != n {
						t.Fatalf("trial %d op %d: iteration %d holds %d tokens; model %d", trial, op, it, tr.at(it).tokens, n)
					}
				}
			}
		}

		// Drain: release everything, delivering the last messages too; the
		// tracker must quiesce.
		for busy := true; busy; {
			busy = false
			for _, p := range procs {
				for len(p.held) > 0 {
					it := take(&p.held, 0)
					p.ledger.Release(it)
					model.release(it)
				}
				publish(p)
			}
			for _, p := range procs {
				busy = busy || len(p.held) > 0
			}
		}
		if tr.TokenCount() != 0 || model.tokenCount() != 0 {
			t.Fatalf("trial %d: drained to %d tokens (model %d)", trial, tr.TokenCount(), model.tokenCount())
		}
		if announced < 3 {
			t.Fatalf("trial %d: the master announced only %d iterations: the windows never let the frontier move", trial, announced)
		}

		// A release no acquisition covers still panics: alone, or in the same
		// ledger as an acquisition at the same iteration.
		var l TokenLedger
		l.Release(tr.Notified() + 1)
		expectPanic(t, "ledger release without acquire", func() { tr.Publish(&l) })
		l = TokenLedger{}
		l.Acquire(tr.Notified()+1, 1)
		l.Release(tr.Notified() + 1)
		l.Release(tr.Notified() + 1)
		expectPanic(t, "ledger releasing two tokens over one acquisition", func() { tr.Publish(&l) })
	}
}
