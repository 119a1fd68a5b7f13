// Package lamport implements Lamport logical clocks.
//
// Tornado's three-phase update protocol (engine package) orders in-flight
// vertex updates with Lamport timestamps: a vertex only acknowledges PREPARE
// messages from producers whose update happened after its own in-flight
// update. The induced total order (timestamp, then tie-break ID) makes
// deadlock and starvation impossible even while the dependency graph evolves,
// which is where the classic Dijkstra and Chandy-Misra solutions to dining
// philosophers fall short (SIGMOD'16 paper, Section 4.2).
package lamport

import "sync/atomic"

// Clock is a monotonically increasing logical clock. The engine keeps one per
// processor — Lamport's rule asks for one per process. The zero value is
// ready to use.
type Clock struct {
	now atomic.Int64
}

// Tick advances the clock and returns a fresh, strictly positive timestamp.
// Tick is safe for concurrent use.
func (c *Clock) Tick() int64 {
	return c.now.Add(1)
}

// Witness merges an externally observed timestamp into the clock, ensuring
// subsequent Tick calls return timestamps greater than t. It implements the
// receive rule of Lamport's algorithm and is safe for concurrent use.
func (c *Clock) Witness(t int64) {
	for {
		cur := c.now.Load()
		if cur >= t {
			return
		}
		if c.now.CompareAndSwap(cur, t) {
			return
		}
	}
}

// Now returns the latest timestamp issued or witnessed, without advancing the
// clock. It is safe for concurrent use.
func (c *Clock) Now() int64 {
	return c.now.Load()
}

// Stamp is a totally ordered event identifier: a Lamport time plus an owner
// ID used to break ties. The zero Stamp is "no stamp" and compares before
// every real stamp.
type Stamp struct {
	Time  int64
	Owner uint64
}

// IsZero reports whether s is the absent stamp.
func (s Stamp) IsZero() bool { return s.Time == 0 && s.Owner == 0 }

// Before reports whether s happened strictly before t in the total order.
// The absent stamp happens before every real stamp.
func (s Stamp) Before(t Stamp) bool {
	if s.Time != t.Time {
		return s.Time < t.Time
	}
	return s.Owner < t.Owner
}
