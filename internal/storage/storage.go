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
// Two backends implement the Store interface: MemStore (the LMDB stand-in)
// and DiskStore (an append-only log with an in-memory index and CRC-checked
// records, the PostgreSQL stand-in whose Flush cost shapes the synchronous
// loop's per-iteration time in the experiments).
package storage

import (
	"bytes"
	"errors"
	"sort"
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

// Store is the versioned state store contract shared by all backends.
// Implementations are safe for concurrent use.
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
	// returned release is called, Compact keeps every version a reader at
	// iter can observe (the freshest version <= iter of each vertex).
	// Pinning is the store-level guarantee behind branch forks — the engine
	// additionally caps its own compaction floor, but only the store can
	// promise that a direct Compact call never races a fork window. The
	// release is idempotent. Truncate and DropLoop are deliberately not
	// clamped: they are crash-recovery and teardown floors, authoritative
	// over any snapshot.
	Pin(loop LoopID, iter int64) func()

	// Close releases resources. The store must not be used afterwards.
	Close() error
}

// pinRegistry is the shared snapshot-pin ledger every backend consults
// before compacting. It maps loop -> pinned iteration -> refcount; Compact
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

// versions is a per-vertex version chain ordered by ascending iteration.
type versions struct {
	iters []int64
	data  [][]byte
}

// get returns the exact version at iteration, if present.
func (v *versions) get(iteration int64) ([]byte, bool) {
	i := sort.Search(len(v.iters), func(i int) bool { return v.iters[i] >= iteration })
	if i < len(v.iters) && v.iters[i] == iteration {
		return v.data[i], true
	}
	return nil, false
}

// put inserts or overwrites the version at iteration.
func (v *versions) put(iteration int64, data []byte) {
	i := sort.Search(len(v.iters), func(i int) bool { return v.iters[i] >= iteration })
	if i < len(v.iters) && v.iters[i] == iteration {
		v.data[i] = data
		return
	}
	v.iters = append(v.iters, 0)
	v.data = append(v.data, nil)
	copy(v.iters[i+1:], v.iters[i:])
	copy(v.data[i+1:], v.data[i:])
	v.iters[i] = iteration
	v.data[i] = data
}

// latest returns the freshest version <= maxIter.
func (v *versions) latest(maxIter int64) ([]byte, int64, bool) {
	i := sort.Search(len(v.iters), func(i int) bool { return v.iters[i] > maxIter })
	if i == 0 {
		return nil, 0, false
	}
	return v.data[i-1], v.iters[i-1], true
}

// compact keeps the freshest version <= keepFrom plus all newer versions.
func (v *versions) compact(keepFrom int64) {
	i := sort.Search(len(v.iters), func(i int) bool { return v.iters[i] > keepFrom })
	if i <= 1 {
		return
	}
	keep := i - 1 // index of freshest version <= keepFrom
	v.iters = append(v.iters[:0], v.iters[keep:]...)
	v.data = append(v.data[:0], v.data[keep:]...)
}

// truncate drops all versions with iteration > above and reports whether the
// chain is now empty.
func (v *versions) truncate(above int64) bool {
	i := sort.Search(len(v.iters), func(i int) bool { return v.iters[i] > above })
	v.iters = v.iters[:i]
	v.data = v.data[:i]
	return len(v.iters) == 0
}

// loopState is one loop's namespace in MemStore.
type loopState struct {
	verts      map[stream.VertexID]*versions
	checkpoint int64
	hasCkpt    bool
	// sortedIDs caches the ascending vertex order Scan visits. Scans (state
	// reads, branch forks, checkpoint recovery) far outnumber changes to the
	// ID set, so the sort is paid once per membership change instead of once
	// per scan. nil means stale: the first Put of a new vertex and any
	// Truncate that deletes one reset it, and the next Scan rebuilds.
	sortedIDs []stream.VertexID
}

// MemStore is an in-memory Store. The zero value is not usable; call
// NewMemStore.
type MemStore struct {
	mu    sync.RWMutex
	loops map[LoopID]*loopState
	pins  pinRegistry
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{loops: make(map[LoopID]*loopState)}
}

func (s *MemStore) loop(l LoopID) *loopState {
	ls, ok := s.loops[l]
	if !ok {
		ls = &loopState{verts: make(map[stream.VertexID]*versions)}
		s.loops[l] = ls
	}
	return ls
}

// Put implements Store. The defensive copy is taken under the lock only
// when a new payload actually lands: re-delivered identical writes — the
// common case under at-least-once delivery, where an acked commit is
// retransmitted and re-applied idempotently — allocate nothing. A differing
// overwrite cannot reuse the old slice's capacity in place, because slices
// previously returned by Latest/Scan alias it and an in-place write would
// race their readers; it gets a fresh copy instead.
func (s *MemStore) Put(loop LoopID, vertex stream.VertexID, iteration int64, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	ls := s.loop(loop)
	vs, ok := ls.verts[vertex]
	if !ok {
		// Pre-size the chain: commit/compact cycles hold steady-state chains
		// at a handful of versions, so one up-front allocation absorbs the
		// early append-growth churn on the hot commit path.
		vs = &versions{iters: make([]int64, 0, 4), data: make([][]byte, 0, 4)}
		ls.verts[vertex] = vs
		ls.sortedIDs = nil
	}
	if old, exists := vs.get(iteration); exists && bytes.Equal(old, data) {
		return nil
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	vs.put(iteration, cp)
	return nil
}

// Latest implements Store.
func (s *MemStore) Latest(loop LoopID, vertex stream.VertexID, maxIter int64) ([]byte, int64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ls, ok := s.loops[loop]
	if !ok {
		return nil, 0, ErrNotFound
	}
	vs, ok := ls.verts[vertex]
	if !ok {
		return nil, 0, ErrNotFound
	}
	data, iter, ok := vs.latest(maxIter)
	if !ok {
		return nil, 0, ErrNotFound
	}
	return data, iter, nil
}

// Scan implements Store.
func (s *MemStore) Scan(loop LoopID, maxIter int64, fn func(Record) error) error {
	s.mu.RLock()
	ls, ok := s.loops[loop]
	if !ok {
		s.mu.RUnlock()
		return nil
	}
	ids := ls.sortedIDs
	if ids == nil {
		// Stale cache: retake the lock for writing, rebuild, and snapshot
		// the records under the same critical section so a concurrent Put
		// cannot invalidate between rebuild and collection.
		s.mu.RUnlock()
		s.mu.Lock()
		ls, ok = s.loops[loop]
		if !ok {
			s.mu.Unlock()
			return nil
		}
		if ids = ls.sortedIDs; ids == nil {
			ids = make([]stream.VertexID, 0, len(ls.verts))
			for v := range ls.verts {
				ids = append(ids, v)
			}
			sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
			ls.sortedIDs = ids
		}
		recs := collectRecords(ls, ids, maxIter)
		s.mu.Unlock()
		return visitRecords(recs, fn)
	}
	recs := collectRecords(ls, ids, maxIter)
	s.mu.RUnlock()
	return visitRecords(recs, fn)
}

// collectRecords snapshots the freshest version <= maxIter of every cached
// vertex; callers hold s.mu (read or write).
func collectRecords(ls *loopState, ids []stream.VertexID, maxIter int64) []Record {
	recs := make([]Record, 0, len(ids))
	for _, v := range ids {
		vs, ok := ls.verts[v]
		if !ok {
			continue
		}
		if data, iter, ok := vs.latest(maxIter); ok {
			recs = append(recs, Record{Vertex: v, Iteration: iter, Data: data})
		}
	}
	return recs
}

func visitRecords(recs []Record, fn func(Record) error) error {
	for _, r := range recs {
		if err := fn(r); err != nil {
			return err
		}
	}
	return nil
}

// Flush implements Store. For MemStore it only records the checkpoint mark.
func (s *MemStore) Flush(loop LoopID, upTo int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	ls := s.loop(loop)
	if !ls.hasCkpt || upTo > ls.checkpoint {
		ls.checkpoint = upTo
		ls.hasCkpt = true
	}
	return nil
}

// LastCheckpoint implements Store.
func (s *MemStore) LastCheckpoint(loop LoopID) (int64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ls, ok := s.loops[loop]
	if !ok || !ls.hasCkpt {
		return 0, ErrNotFound
	}
	return ls.checkpoint, nil
}

// Compact implements Store. keepFrom is clamped at the oldest pinned
// iteration so a pinned snapshot never loses a version it can observe.
func (s *MemStore) Compact(loop LoopID, keepFrom int64) error {
	keepFrom = s.pins.clamp(loop, keepFrom)
	s.mu.Lock()
	defer s.mu.Unlock()
	ls, ok := s.loops[loop]
	if !ok {
		return nil
	}
	for _, vs := range ls.verts {
		vs.compact(keepFrom)
	}
	return nil
}

// Pin implements Store.
func (s *MemStore) Pin(loop LoopID, iter int64) func() {
	return s.pins.pin(loop, iter)
}

// Truncate implements Store.
func (s *MemStore) Truncate(loop LoopID, above int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	ls, ok := s.loops[loop]
	if !ok {
		return nil
	}
	for id, vs := range ls.verts {
		if vs.truncate(above) {
			delete(ls.verts, id)
			ls.sortedIDs = nil
		}
	}
	return nil
}

// DropLoop implements Store.
func (s *MemStore) DropLoop(loop LoopID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.loops, loop)
	return nil
}

// Close implements Store.
func (s *MemStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.loops = make(map[LoopID]*loopState)
	return nil
}

// NumVersions reports the total number of stored versions in a loop,
// used by tests and by memory accounting.
func (s *MemStore) NumVersions(loop LoopID) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ls, ok := s.loops[loop]
	if !ok {
		return 0
	}
	n := 0
	for _, vs := range ls.verts {
		n += len(vs.iters)
	}
	return n
}

var _ Store = (*MemStore)(nil)
