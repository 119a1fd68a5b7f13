package storage

import (
	"cmp"
	"slices"
	"sort"
	"sync"

	"tornado/internal/stream"
)

// MemStore is the reference model the store's tests hold MVCCStore and
// DiskStore to: per loop, a map of version chains under one lock — the Store
// contract with none of the index's machinery. Its Snapshot materializes a
// private copy of the loop, which is exactly what a handle must keep reading.
type MemStore struct {
	mu    sync.RWMutex
	loops map[LoopID]*memLoop
	pins  pinRegistry
}

// memLoop is one loop's namespace in MemStore.
type memLoop struct {
	verts      map[stream.VertexID]*versions
	checkpoint int64
	hasCkpt    bool
}

// versions is a per-vertex version chain ordered by ascending iteration.
type versions struct {
	iters []int64
	data  [][]byte
}

// put inserts or overwrites the version at iteration.
func (v *versions) put(iteration int64, data []byte) {
	i := sort.Search(len(v.iters), func(i int) bool { return v.iters[i] >= iteration })
	if i < len(v.iters) && v.iters[i] == iteration {
		v.data[i] = data
		return
	}
	v.iters = slices.Insert(v.iters, i, iteration)
	v.data = slices.Insert(v.data, i, data)
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
	if i > 1 {
		v.iters = slices.Delete(v.iters, 0, i-1)
		v.data = slices.Delete(v.data, 0, i-1)
	}
}

// truncate drops all versions with iteration > above and reports whether the
// chain is now empty.
func (v *versions) truncate(above int64) bool {
	i := sort.Search(len(v.iters), func(i int) bool { return v.iters[i] > above })
	v.iters = v.iters[:i]
	v.data = v.data[:i]
	return i == 0
}

// NewMemStore returns an empty reference store.
func NewMemStore() *MemStore {
	return &MemStore{loops: make(map[LoopID]*memLoop)}
}

func (s *MemStore) loop(l LoopID) *memLoop {
	ls, ok := s.loops[l]
	if !ok {
		ls = &memLoop{verts: make(map[stream.VertexID]*versions)}
		s.loops[l] = ls
	}
	return ls
}

// Put implements Store. The payload is copied, and an overwrite swaps the
// slice rather than editing the stored one, so slices handed out earlier
// (and snapshot copies sharing them) never change.
func (s *MemStore) Put(loop LoopID, vertex stream.VertexID, iteration int64, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	ls := s.loop(loop)
	vs, ok := ls.verts[vertex]
	if !ok {
		vs = &versions{}
		ls.verts[vertex] = vs
	}
	vs.put(iteration, slices.Clone(data))
	return nil
}

// Latest implements Store.
func (s *MemStore) Latest(loop LoopID, vertex stream.VertexID, maxIter int64) ([]byte, int64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if ls, ok := s.loops[loop]; ok {
		if vs, ok := ls.verts[vertex]; ok {
			if data, iter, ok := vs.latest(maxIter); ok {
				return data, iter, nil
			}
		}
	}
	return nil, 0, ErrNotFound
}

// Scan implements Store over a materialized copy of the loop.
func (s *MemStore) Scan(loop LoopID, maxIter int64, fn func(Record) error) error {
	return s.Snapshot(loop).Scan(maxIter, fn)
}

// Flush implements Store: it only records the checkpoint mark.
func (s *MemStore) Flush(loop LoopID, upTo int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	ls := s.loop(loop)
	if !ls.hasCkpt || upTo > ls.checkpoint {
		ls.checkpoint, ls.hasCkpt = upTo, true
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

// Compact implements Store, clamped at the oldest pin.
func (s *MemStore) Compact(loop LoopID, keepFrom int64) error {
	keepFrom = s.pins.clamp(loop, keepFrom)
	s.mu.Lock()
	defer s.mu.Unlock()
	if ls, ok := s.loops[loop]; ok {
		for _, vs := range ls.verts {
			vs.compact(keepFrom)
		}
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
	if ls, ok := s.loops[loop]; ok {
		for id, vs := range ls.verts {
			if vs.truncate(above) {
				delete(ls.verts, id)
			}
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

// Snapshot implements Store: a copy of every chain of the loop (sharing the
// payloads, which are never edited), in vertex order.
func (s *MemStore) Snapshot(loop LoopID) Snapshot {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var snap memSnap
	if ls, ok := s.loops[loop]; ok {
		for id, vs := range ls.verts {
			snap = append(snap, memVertex{id, versions{slices.Clone(vs.iters), slices.Clone(vs.data)}})
		}
	}
	slices.SortFunc(snap, func(a, b memVertex) int { return cmp.Compare(a.id, b.id) })
	return snap
}

// StoreStats implements Store: the residency counters MVCCStore keeps for
// its live roots (loops, versions, payload bytes) and the pin count.
func (s *MemStore) StoreStats() StoreStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := StoreStats{Loops: len(s.loops), PinnedSnapshots: s.pins.count()}
	for _, ls := range s.loops {
		for _, vs := range ls.verts {
			st.LiveVersions += int64(len(vs.iters))
			for _, d := range vs.data {
				st.ResidentBytes += int64(len(d))
			}
		}
	}
	return st
}

// Close implements Store.
func (s *MemStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.loops = make(map[LoopID]*memLoop)
	return nil
}

var _ Store = (*MemStore)(nil)

// memSnap is MemStore's materialized snapshot.
type memSnap []memVertex

type memVertex struct {
	id stream.VertexID
	vs versions
}

// Latest implements Snapshot.
func (h memSnap) Latest(vertex stream.VertexID, maxIter int64) ([]byte, int64, error) {
	if i, ok := slices.BinarySearchFunc(h, vertex, func(mv memVertex, v stream.VertexID) int { return cmp.Compare(mv.id, v) }); ok {
		if data, iter, ok := h[i].vs.latest(maxIter); ok {
			return data, iter, nil
		}
	}
	return nil, 0, ErrNotFound
}

// Scan implements Snapshot.
func (h memSnap) Scan(maxIter int64, fn func(Record) error) error {
	for _, mv := range h {
		if data, iter, ok := mv.vs.latest(maxIter); ok {
			if err := fn(Record{Vertex: mv.id, Iteration: iter, Data: data}); err != nil {
				return err
			}
		}
	}
	return nil
}

// Release implements Snapshot: a materialized copy holds nothing to release.
func (memSnap) Release() {}
