package storage

import (
	"time"

	"tornado/internal/stream"
)

// Snapshot is a read-only point-in-time view of one loop's versions. Reads
// through a handle see exactly the versions that existed when the handle
// was taken: later Puts, Compacts, Truncates, or even a DropLoop of the
// underlying loop never change what the handle returns. Handles are safe
// for concurrent use, including reads racing a Release: a reader that holds
// the handle keeps its coherent view. In MVCCStore a handle owns a frozen
// root — taking it moved the loop's writer epoch on, so writers copy what it
// can reach instead of editing it — and its reads take no lock, where reads
// of the live store do. Release is idempotent and retires the
// handle from the pinned-snapshot gauges; the store never holds a strong
// reference to the handle itself, so nothing breaks if one leaks — the GC
// frees it (and its epoch) normally, and the gauge shows the leak only
// until collection.
type Snapshot interface {
	// Latest returns the freshest version of vertex with iteration <=
	// maxIter at grab time, or ErrNotFound.
	Latest(vertex stream.VertexID, maxIter int64) ([]byte, int64, error)
	// Scan visits the freshest version <= maxIter of every vertex present
	// at grab time, in ascending vertex order.
	Scan(maxIter int64, fn func(Record) error) error
	// Release drops the handle.
	Release()
}

// Snapshotter is implemented by stores whose Snapshot is an O(1) handle
// grab (MVCCStore: one short hold of the loop's writer lock). Callers that
// fork loops should prefer a handle over repeated Store reads: the handle is
// immune to concurrent compaction by construction and never waits for a
// writer, where live-store reads rely on the Pin clamp and share the
// writers' lock. A grab is cheap but not free for writers — the first write
// to each vertex afterwards copies its search path — so take one per view,
// not one per read.
type Snapshotter interface {
	Snapshot(loop LoopID) Snapshot
}

// StoreStats is a residency report from a self-accounting store.
type StoreStats struct {
	// Loops is the number of live loop namespaces.
	Loops int
	// LiveVersions / ResidentBytes count versions (and their payload bytes)
	// reachable from the live roots — what a reader of the current state
	// can observe, and what compaction shrinks. Handle-retained epochs are
	// excluded: they die with their handles.
	LiveVersions  int64
	ResidentBytes int64
	// Compactions counts Compact passes; ReclaimedVersions the versions
	// they dropped.
	Compactions       int64
	ReclaimedVersions int64
	// PinnedSnapshots is the number of unreleased snapshot handles plus
	// live Pin marks; OldestSnapshotAge the age of the oldest handle.
	// Persistently nonzero counts after all branches closed indicate a
	// leaked fork.
	PinnedSnapshots   int64
	OldestSnapshotAge time.Duration
}

// StatsProvider is implemented by stores that account their own residency;
// the engine exports these as tornado_store_* gauges when available.
type StatsProvider interface {
	StoreStats() StoreStats
}
