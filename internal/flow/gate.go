// Package flow holds the backpressure primitives shared by the ingest
// pipeline: a watermark credit gate that bounds in-flight work, and an
// overload controller that walks a degradation ladder when the bounds run
// hot. Both are deliberately free of engine types so the engine and the
// system layer (including the feed, which waits at the gate) can both lean
// on them.
package flow

import (
	"sync"
	"sync/atomic"
	"time"
)

// Gate is a credit semaphore with watermark hysteresis. Producers Acquire a
// credit per unit of in-flight work and consumers Release it once the work
// is retired. Acquire admits freely until the outstanding count reaches the
// high watermark; from then on producers block until the consumer drains
// the ledger back to the low watermark, so a saturated gate re-opens with
// headroom instead of thrashing one credit at a time.
//
// Release is clamped at zero and Reset drops the whole ledger: crash
// recovery discards in-flight work wholesale, and a gate that insisted on
// pairwise accounting across an incarnation boundary would either leak
// credits forever or go negative. The cost is that the bound is briefly
// soft after a reset (stragglers from the dead incarnation release into an
// empty ledger); it re-tightens as soon as replay re-acquires.
type Gate struct {
	mu    sync.Mutex
	cond  *sync.Cond
	high  int
	low   int
	out   int  // outstanding credits
	stuck bool // reached high; stays set until drained to low
	done  bool

	waits      atomic.Int64
	waitNanos  atomic.Int64
	resets     atomic.Int64
	peak       int // max outstanding ever seen (under mu)
	peakAtomic atomic.Int64
}

// NewGate returns a gate admitting up to high outstanding credits, resuming
// a saturated gate once drained to low. A non-positive or out-of-range low
// defaults to high/2.
func NewGate(high, low int) *Gate {
	if high < 1 {
		high = 1
	}
	if low < 0 || low >= high {
		low = high / 2
	}
	g := &Gate{high: high, low: low}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// Acquire blocks until one credit is available and takes it.
func (g *Gate) Acquire() { g.AcquireUpTo(1) }

// AcquireUpTo blocks until the gate is open, then takes between 1 and max
// credits — as many as fit under the high watermark — and returns the count
// taken. Callers with a batch of work admit it in gate-sized chunks:
//
//	for len(batch) > 0 {
//	    n := g.AcquireUpTo(len(batch))
//	    submit(batch[:n])
//	    batch = batch[n:]
//	}
//
// A closed gate admits everything immediately (shutdown must not strand
// producers).
func (g *Gate) AcquireUpTo(max int) int {
	if max < 1 {
		max = 1
	}
	g.mu.Lock()
	for g.stuck && !g.done {
		g.waits.Add(1)
		start := time.Now()
		g.cond.Wait()
		g.waitNanos.Add(time.Since(start).Nanoseconds())
	}
	if g.done {
		g.mu.Unlock()
		return max
	}
	n := g.high - g.out
	if n > max {
		n = max
	}
	if n < 1 {
		n = 1
	}
	g.out += n
	if g.out >= g.high {
		g.stuck = true
	}
	if g.out > g.peak {
		g.peak = g.out
		g.peakAtomic.Store(int64(g.out))
	}
	g.mu.Unlock()
	return n
}

// TryAcquire takes one credit if the gate is open and reports whether it did.
func (g *Gate) TryAcquire() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.done {
		return true
	}
	if g.stuck {
		return false
	}
	g.out++
	if g.out >= g.high {
		g.stuck = true
	}
	if g.out > g.peak {
		g.peak = g.out
		g.peakAtomic.Store(int64(g.out))
	}
	return true
}

// Release returns n credits. The ledger clamps at zero (see the type
// comment for why) and re-opens a saturated gate once drained to the low
// watermark.
func (g *Gate) Release(n int) {
	if n < 1 {
		return
	}
	g.mu.Lock()
	g.out -= n
	if g.out < 0 {
		g.out = 0
	}
	if g.stuck && g.out <= g.low {
		g.stuck = false
		g.cond.Broadcast()
	}
	g.mu.Unlock()
}

// Reset discards the whole ledger and wakes all waiters. Called on crash
// recovery, where every in-flight credit belongs to a discarded incarnation.
func (g *Gate) Reset() {
	g.mu.Lock()
	g.out = 0
	g.stuck = false
	g.resets.Add(1)
	g.cond.Broadcast()
	g.mu.Unlock()
}

// Close opens the gate permanently so shutdown never strands a producer.
func (g *Gate) Close() {
	g.mu.Lock()
	g.done = true
	g.stuck = false
	g.cond.Broadcast()
	g.mu.Unlock()
}

// Depth returns the outstanding credit count.
func (g *Gate) Depth() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.out
}

// Capacity returns the high watermark.
func (g *Gate) Capacity() int { return g.high }

// Saturated reports whether the gate is currently withholding credits.
func (g *Gate) Saturated() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.stuck
}

// Waits returns how many times an acquirer blocked.
func (g *Gate) Waits() int64 { return g.waits.Load() }

// WaitTime returns the cumulative wall-clock time acquirers spent blocked —
// the "producer pause time" a backpressured pipeline should surface.
func (g *Gate) WaitTime() time.Duration { return time.Duration(g.waitNanos.Load()) }

// Resets returns how many times the ledger was discarded.
func (g *Gate) Resets() int64 { return g.resets.Load() }

// Peak returns the highest outstanding credit count ever observed.
func (g *Gate) Peak() int { return int(g.peakAtomic.Load()) }
