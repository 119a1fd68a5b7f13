package engine

import (
	"math/rand"
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
					tr.RecordCommit(iter, prog)
					model.commits[iter]++
					model.progress[iter] += prog
				}
			case k == 9 || k == 10: // the master: advance when it would not block, read and drop the stats
				wf, wt, wq, blocks := model.advance()
				if blocks {
					break
				}
				from, to, quiesced, ok := tr.Advance()
				if !ok || from != wf || to != wt || quiesced != wq {
					t.Fatalf("trial %d op %d: Advance = %d..%d %v %v; model %d..%d %v", trial, op, from, to, quiesced, ok, wf, wt, wq)
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
				tr.Quiesced() != (len(model.counts) == 0) || tr.Settled() != (len(model.counts) == 0 && model.notified >= model.maxSeen) {
				t.Fatalf("trial %d op %d: notified %d frontier %d tokens %d quiesced %v settled %v; model %d %d %d %v",
					trial, op, tr.Notified(), tr.Frontier(), tr.TokenCount(), tr.Quiesced(), tr.Settled(),
					model.notified, model.frontier(), model.tokenCount(), len(model.counts) == 0)
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
			if _, to, _, ok := tr.Advance(); !ok || to != wt {
				t.Fatalf("trial %d: draining Advance -> %d, %v; model %d", trial, to, ok, wt)
			}
			tr.DropStatsThrough(wt)
		}
		if !tr.Settled() || len(tr.ring) != minTrackerRing {
			t.Fatalf("trial %d: settled %v with a ring of %d cells (peak %d); want %d", trial, tr.Settled(), len(tr.ring), maxRing, minTrackerRing)
		}
		if spread > minTrackerRing && maxRing == minTrackerRing {
			t.Fatalf("trial %d spread tokens over %d iterations and never grew the ring", trial, spread)
		}
		expectPanic(t, "Release without acquire", func() { tr.Release(tr.Notified() + 1) })
		expectPanic(t, "Release below the floor", func() { tr.Release(base - 5) })
	}
}
