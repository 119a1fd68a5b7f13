// Package storage provides the multi-versioned state store backing Tornado's
// loops.
//
// The paper's prototype materializes vertex state in an external store
// (PostgreSQL by default, an LMDB-backed in-memory database for the system
// comparison). The engine needs exactly four capabilities from it:
//
//   - Put a new version of a vertex, stamped with the iteration in which the
//     update committed.
//   - Read the most recent version of a vertex no newer than iteration i
//     (this is how a branch loop snapshots the main loop: "the most recent
//     versions of vertices that are not greater than i will be selected").
//   - Flush all versions of an iteration before progress is reported, which
//     makes every terminated iteration a checkpoint.
//   - Recover the checkpoint after a failure.
//
// One index serves every loop: MVCCStore, a per-loop copy-on-write treap of
// version chains whose snapshot handles are O(1) grabs (the LMDB stand-in).
// DiskStore adds durability underneath it and nothing else: an append-only
// log of CRC-checked records replayed into an MVCCStore on open (the
// PostgreSQL stand-in whose Flush cost shapes the synchronous loop's
// per-iteration time in the experiments).
package storage

import (
	"errors"
	"sync"

	"tornado/internal/stream"
)

// LoopID identifies a loop's namespace in the store. The main loop is
// conventionally loop 0; every branch loop gets a fresh ID.
type LoopID uint64

// MainLoop is the LoopID of the main loop.
const MainLoop LoopID = 0

// ErrNotFound is returned when no version satisfies a read.
var ErrNotFound = errors.New("storage: version not found")

// Record is one versioned value surfaced by Scan.
type Record struct {
	Vertex    stream.VertexID
	Iteration int64
	Data      []byte
}

// Store is the versioned state store contract the engine runs on
// (MVCCStore, and DiskStore over it). Implementations are safe for
// concurrent use.
type Store interface {
	// Put writes a version of vertex stamped with iteration. Writing the
	// same (loop, vertex, iteration) twice overwrites (updates are
	// idempotent under at-least-once delivery). Put copies data before it
	// returns: the engine's commit path reuses one buffer for every call.
	Put(loop LoopID, vertex stream.VertexID, iteration int64, data []byte) error

	// Latest returns the freshest version of vertex with iteration <= maxIter,
	// or ErrNotFound. The returned slice must not be modified.
	Latest(loop LoopID, vertex stream.VertexID, maxIter int64) ([]byte, int64, error)

	// Scan visits the freshest version <= maxIter of every vertex in the
	// loop, in ascending vertex order. fn returning an error aborts the scan.
	Scan(loop LoopID, maxIter int64, fn func(Record) error) error

	// Flush makes all writes of the loop durable and records that iteration
	// upTo has terminated (the checkpoint barrier of Section 5.3).
	Flush(loop LoopID, upTo int64) error

	// LastCheckpoint returns the highest iteration recorded by Flush for the
	// loop, or ErrNotFound if the loop was never flushed.
	LastCheckpoint(loop LoopID) (int64, error)

	// Compact drops versions of the loop that are superseded by a version
	// <= keepFrom (the freshest version <= keepFrom of each vertex is kept).
	Compact(loop LoopID, keepFrom int64) error

	// Truncate drops every version of the loop with iteration > above. It is
	// the crash-recovery floor: restarting from the checkpoint at iteration
	// `above` first discards the incomplete versions of unterminated
	// iterations so they can never shadow recomputed state.
	Truncate(loop LoopID, above int64) error

	// DropLoop discards all state of a loop (branch loops are dropped after
	// their results are consumed or merged).
	DropLoop(loop LoopID) error

	// Pin marks iteration iter of the loop as snapshot-visible: until the
	// returned release is called, Compact keeps every version a reader of
	// the live store at iter can observe (the freshest version <= iter of
	// each vertex), whoever calls Compact — the engine's master or anyone
	// else. The release is idempotent.
	// Truncate and DropLoop are deliberately not clamped: they are
	// crash-recovery and teardown floors, authoritative over any snapshot.
	Pin(loop LoopID, iter int64) func()

	// Snapshot returns a read-only handle on the loop's current state (see
	// Snapshot). It is an O(1) grab, cheap but not free for writers: the
	// first write to each vertex afterwards copies its search path, so take
	// one per view, not one per read.
	Snapshot(loop LoopID) Snapshot

	// StoreStats reports the store's residency and compaction counters.
	StoreStats() StoreStats

	// Close releases resources. The store must not be used afterwards.
	Close() error
}

// pinRegistry is the snapshot-pin ledger the store consults before
// compacting. It maps loop -> pinned iteration -> refcount; Compact
// clamps its keepFrom at the oldest pinned iteration so the version a
// pinned reader may observe is always the one kept.
type pinRegistry struct {
	mu   sync.Mutex
	pins map[LoopID]map[int64]int
}

// pin registers iter and returns its idempotent release.
func (r *pinRegistry) pin(loop LoopID, iter int64) func() {
	r.mu.Lock()
	if r.pins == nil {
		r.pins = make(map[LoopID]map[int64]int)
	}
	m := r.pins[loop]
	if m == nil {
		m = make(map[int64]int)
		r.pins[loop] = m
	}
	m[iter]++
	r.mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			r.mu.Lock()
			if m := r.pins[loop]; m != nil {
				if m[iter]--; m[iter] <= 0 {
					delete(m, iter)
					if len(m) == 0 {
						delete(r.pins, loop)
					}
				}
			}
			r.mu.Unlock()
		})
	}
}

// clamp caps keepFrom at the oldest pinned iteration of the loop.
func (r *pinRegistry) clamp(loop LoopID, keepFrom int64) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	for iter := range r.pins[loop] {
		if iter < keepFrom {
			keepFrom = iter
		}
	}
	return keepFrom
}

// count returns the number of live pins across all loops.
func (r *pinRegistry) count() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var n int64
	for _, m := range r.pins {
		for _, c := range m {
			n += int64(c)
		}
	}
	return n
}
