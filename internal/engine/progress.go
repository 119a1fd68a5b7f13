package engine

import (
	"fmt"
	"sync"
)

// Tracker implements iteration termination detection (Section 4.3).
//
// Every pending obligation of the loop holds a token at the lowest iteration
// whose termination it must block:
//
//   - an external input accepted by the ingester holds a token at the
//     current frontier until the destination vertex applies it;
//   - a dirty vertex (one that gathered something and will commit) holds a
//     token at the lower bound of its future commit iteration;
//   - an in-flight committed update stamped i holds a token at i+1 (its
//     consequences — the consumer's gather and subsequent commit — happen at
//     iterations > i).
//
// Obligations acquire their consequence tokens before releasing their cause
// tokens — a processor hands both over in batches of up to a receive window,
// in a TokenLedger whose Publish keeps that order — so the frontier (the
// smallest iteration holding a token) can never advance past hidden work:
// when no tokens at or below k remain, iteration k has terminated exactly in
// the paper's sense — all preceding iterations have terminated and every
// vertex has proceeded beyond it. When no tokens remain at all the loop is
// quiescent, which for a branch loop (whose input is frozen) means
// convergence.
//
// AcquireFloor places tokens at max(requested, lastTerminated+1), never
// inside an already-announced iteration, keeping terminated iterations
// immutable (they are checkpoints and fork points).
type Tracker struct {
	mu   sync.Mutex
	cond *sync.Cond

	// ring holds iteration i's cell at ring[i&(len(ring)-1)] for i in
	// [base, top]: base is the lowest iteration whose statistics the master
	// has not dropped (it trails notified+1), top the highest iteration
	// touched; the power-of-two length grows to cover them (about B cells
	// under a delay bound B). Cells outside [base, top] are zero.
	ring      []iterCell
	base, top int64

	live            int64 // tokens outstanding
	min             int64 // lowest iteration holding a token; meaningful while live > 0
	notified        int64 // highest iteration announced terminated
	maxSeen         int64 // highest iteration that ever held a token
	acquired        int64 // acquisitions ever made (calls placing >= 1 token)
	closed          bool
	quiesceReported bool // quiescence already surfaced to the master
}

// iterCell is one iteration's active tokens and, for the master, the vertex
// updates committed in it and their user progress aggregate.
type iterCell struct {
	tokens   int64
	commits  int64
	progress float64
}

const minTrackerRing = 64

// NewTracker returns a tracker whose first live iteration is base (pass 0
// for a fresh loop; a resumed loop passes its last terminated iteration + 1
// so new commits stamp above its history).
func NewTracker(base int64) *Tracker {
	t := &Tracker{
		ring:     make([]iterCell, minTrackerRing),
		base:     base,
		top:      base - 1,
		notified: base - 1,
		maxSeen:  base - 1,
	}
	t.cond = sync.NewCond(&t.mu)
	return t
}

func (t *Tracker) at(iter int64) *iterCell { return &t.ring[iter&int64(len(t.ring)-1)] }

// cell returns iteration iter's cell (iter >= base), growing the ring to
// cover it.
func (t *Tracker) cell(iter int64) *iterCell {
	if span := iter - t.base + 1; span > int64(len(t.ring)) {
		t.resize(span)
	}
	t.top = max(t.top, iter)
	return t.at(iter)
}

// resize moves the live cells into the smallest ring holding span cells.
func (t *Tracker) resize(span int64) {
	n := int64(minTrackerRing)
	for n < span {
		n <<= 1
	}
	ring := make([]iterCell, n)
	for i := t.base; i <= t.top; i++ {
		ring[i&(n-1)] = *t.at(i)
	}
	t.ring = ring
}

// AcquireFloor places one token at max(iter, lastTerminated+1) and returns
// the placement.
func (t *Tracker) AcquireFloor(iter int64) int64 { return t.AcquireFloorN(iter, 1) }

// AcquireFloorN places n tokens (none for n = 0) at max(iter,
// lastTerminated+1) and returns the placement; each is released on its own.
func (t *Tracker) AcquireFloorN(iter int64, n int) int64 {
	if n <= 0 {
		return iter // nothing placed, nothing to release: not worth the lock
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if iter <= t.notified {
		iter = t.notified + 1
	}
	t.quiesceReported = false
	t.acquired++
	t.cell(iter).tokens += int64(n)
	if t.live == 0 || iter < t.min {
		t.min = iter
	}
	t.live += int64(n)
	t.maxSeen = max(t.maxSeen, iter)
	return iter
}

// Release removes one token at iter. Releasing a token that was never
// acquired is an accounting bug and panics.
func (t *Tracker) Release(iter int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	c := t.at(iter)
	if iter < t.base || iter > t.top || c.tokens <= 0 {
		panic(fmt.Sprintf("engine: token release at iteration %d without acquire", iter))
	}
	c.tokens--
	t.live--
	if c.tokens == 0 && iter == t.min {
		// The frontier moved: find the next iteration holding a token.
		for t.live > 0 && t.at(t.min).tokens == 0 {
			t.min++
		}
		t.cond.Broadcast()
	}
}

// TokenLedger batches one processor's tracker writes over (part of) a receive
// window — acquisitions, commit records and releases, summed per iteration —
// for Publish to apply under one lock hold (DESIGN §5). A release or a commit
// record may always wait in it: over-counting only holds the frontier back.
// An acquisition may wait in it only at or above a token the tracker has
// counted and the same ledger releases, so the placement is the requested
// iteration (the floor, lastTerminated+1, cannot be above it) and the
// frontier cannot pass the deferred token before it is counted.
type TokenLedger struct {
	cells        []ledgerCell // one per iteration touched, in first-touch order
	acquisitions int64        // acquisitions placing >= 1 token
}

type ledgerCell struct {
	iter              int64
	acq, rel, commits int64
	progress          float64
}

// cell returns the ledger's entry for iter. A window touches a handful of
// iterations and mostly the one it touched last, so the search runs from the
// end.
func (l *TokenLedger) cell(iter int64) *ledgerCell {
	for i := len(l.cells) - 1; i >= 0; i-- {
		if l.cells[i].iter == iter {
			return &l.cells[i]
		}
	}
	l.cells = append(l.cells, ledgerCell{iter: iter})
	return &l.cells[len(l.cells)-1]
}

// Acquire defers the placement of n tokens at iter (none for n = 0).
func (l *TokenLedger) Acquire(iter int64, n int) {
	if n > 0 {
		l.cell(iter).acq += int64(n)
		l.acquisitions++
	}
}

// Release defers the release of one token at iter.
func (l *TokenLedger) Release(iter int64) { l.cell(iter).rel++ }

// RecordCommit accumulates one committed vertex update (and its progress
// contribution) into iteration iter's statistics. It must be recorded while
// the committing vertex still holds a token at or below iter, released in
// the same publish or a later one.
func (l *TokenLedger) RecordCommit(iter int64, progress float64) {
	c := l.cell(iter)
	c.commits++
	c.progress += progress
}

// Empty reports whether the ledger holds nothing to publish.
func (l *TokenLedger) Empty() bool { return len(l.cells) == 0 }

// Publish applies a ledger and empties it: each iteration's acquisitions,
// commit records and releases under one lock hold, so no observer sees a
// release before the acquisitions it covered. The master is woken once, and
// only if the frontier moved. A release the ledger's and the tracker's
// tokens together cannot cover panics, as Release does.
func (t *Tracker) Publish(l *TokenLedger) {
	if l.Empty() {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	live0, min0 := t.live, t.min
	if l.acquisitions > 0 {
		t.quiesceReported = false
		t.acquired += l.acquisitions
	}
	for i := range l.cells {
		lc := &l.cells[i]
		if lc.acq > 0 {
			if lc.iter <= t.notified {
				panic(fmt.Sprintf("engine: deferred acquisition at terminated iteration %d (announced %d)", lc.iter, t.notified))
			}
			t.cell(lc.iter).tokens += lc.acq
			if t.live == 0 || lc.iter < t.min {
				t.min = lc.iter
			}
			t.live += lc.acq
			t.maxSeen = max(t.maxSeen, lc.iter)
		}
		if lc.commits > 0 && lc.iter >= t.base {
			c := t.cell(lc.iter)
			c.commits += lc.commits
			c.progress += lc.progress
		}
		if lc.rel > 0 {
			c := t.at(lc.iter)
			if lc.iter < t.base || lc.iter > t.top || c.tokens < lc.rel {
				panic(fmt.Sprintf("engine: token release at iteration %d without acquire", lc.iter))
			}
			c.tokens -= lc.rel
			t.live -= lc.rel
		}
	}
	for t.live > 0 && t.at(t.min).tokens == 0 {
		t.min++
	}
	if t.live == 0 && (live0 > 0 || l.acquisitions > 0) || live0 > 0 && t.live > 0 && t.min > min0 {
		t.cond.Broadcast()
	}
	l.cells, l.acquisitions = l.cells[:0], 0
}

// Notified returns the highest iteration announced terminated (-1 if none).
func (t *Tracker) Notified() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.notified
}

// Acquired returns how many acquisitions (AcquireFloorN calls placing at
// least one token) the tracker has counted. Set against the count an Advance
// reported quiescence at, it tells whether anything arrived since.
func (t *Tracker) Acquired() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.acquired
}

// IterStats returns the commit count and progress aggregate of iteration k.
func (t *Tracker) IterStats(k int64) (commits int64, progress float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if k < t.base || k > t.top {
		return 0, 0
	}
	return t.at(k).commits, t.at(k).progress
}

// DropStatsThrough forgets per-iteration statistics up to and including k
// (the master prunes after consuming them). Terminated iterations leave the
// ring, which shrinks once it is mostly empty.
func (t *Tracker) DropStatsThrough(k int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := t.base; i <= k && i <= t.top; i++ {
		t.at(i).commits, t.at(i).progress = 0, 0
	}
	if k = min(k, t.notified); k >= t.base {
		t.base = k + 1
		t.top = max(t.top, k)
	}
	if span := t.top - t.base + 1; len(t.ring) > minTrackerRing && span*4 <= int64(len(t.ring)) {
		t.resize(span * 2)
	}
}

// Advance is the master's blocking call: it waits until at least one new
// iteration can be terminated (or the loop quiesces with unterminated
// iterations outstanding, or Close is called), marks those iterations
// terminated, and returns the inclusive range [from, to] plus whether the
// loop is quiescent. A quiescent report announces through every iteration
// that ever held a token, and acquired is then the acquisition count at the
// quiescent instant (see Acquired). ok is false when the tracker was closed
// with nothing left to announce.
func (t *Tracker) Advance() (from, to, acquired int64, quiesced, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for {
		upTo, quiet := t.pollLocked()
		if upTo > t.notified {
			from = t.notified + 1
			t.notified = upTo
			if quiet {
				t.quiesceReported = true
			}
			return from, upTo, t.acquired, quiet, true
		}
		if t.closed {
			return 0, 0, t.acquired, quiet, false
		}
		if quiet && !t.quiesceReported {
			// Quiescence with nothing new to announce is surfaced exactly
			// once so the master can evaluate convergence without spinning.
			t.quiesceReported = true
			return t.notified + 1, t.notified, t.acquired, true, true
		}
		t.cond.Wait()
	}
}

// pollLocked returns the largest terminable iteration and quiescence.
func (t *Tracker) pollLocked() (int64, bool) {
	if t.live == 0 {
		return t.maxSeen, true
	}
	return t.min - 1, false
}

// Frontier returns the smallest iteration currently holding a token, or
// lastTerminated+1 when quiescent.
func (t *Tracker) Frontier() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	upTo, quiet := t.pollLocked()
	if quiet {
		return t.notified + 1
	}
	return upTo + 1
}

// TokenCount returns the total number of outstanding obligation tokens:
// in-flight inputs, dirty vertices, and committed-but-ungathered updates.
// It is an observability gauge, zero exactly when nothing is pending.
func (t *Tracker) TokenCount() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.live
}

// FrontierLag returns how many iterations the frontier trails the highest
// iteration that ever held a token (0 when fully settled). Under bounded
// asynchrony the lag cannot exceed the delay bound B; watching it against B
// is how the bound is tuned.
func (t *Tracker) FrontierLag() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	upTo, quiet := t.pollLocked()
	frontier := upTo + 1
	if quiet {
		frontier = t.notified + 1
	}
	lag := t.maxSeen - frontier + 1
	if lag < 0 {
		lag = 0
	}
	return lag
}

// Close unblocks Advance.
func (t *Tracker) Close() {
	t.mu.Lock()
	t.closed = true
	t.cond.Broadcast()
	t.mu.Unlock()
}
