package storage

import (
	"bytes"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"tornado/internal/stream"
)

// This file implements MVCCStore, the copy-on-write multi-version index.
//
// A map of version chains under one lock would serialize every fork against
// every commit: taking a consistent view would mean materializing a full
// Scan under the lock, O(n) in the vertex count, and nothing would tie
// version reclamation to the snapshots still reading. Instead each loop's
// index is a treap keyed
// by vertex that is persistent only across the instants somebody looks: the
// loop carries a writer epoch, every node and version chain is tagged with
// the epoch that created it, and a writer (always under the loop's wmu) may
// mutate what the current epoch created in place. A Snapshot takes wmu,
// grabs the root and bumps the epoch — O(1) regardless of how many vertices
// or versions exist — which freezes everything reachable from that root:
// the first write that touches a frozen node or chain afterwards copies it
// (re-tagged) instead, once per snapshot rather than once per commit. Reads
// through a handle therefore never take a lock. Reads of the live store do
// synchronise: Latest descends under wmu, Scan freezes the root like a
// snapshot and walks it outside the lock.
//
// Reclamation is epoch-style by construction: a snapshot handle keeps its
// root reachable, the root keeps exactly the nodes of its epoch reachable,
// and Go's GC frees a version the moment neither the live root nor an
// outstanding handle can reach it. Compaction rewrites version chains below
// `min(checkpoint horizon, oldest pin)` into fresh nodes and fresh
// exact-size chains under a new root; subtrees with nothing to reclaim are
// shared, not copied, so the treap's shape (and its hash-derived
// priorities) survive. A handle taken before the compaction still reads the
// old root — a live branch structurally cannot lose its view — while the
// pin registry additionally clamps the floor for readers of the live store.
type MVCCStore struct {
	loops sync.Map // LoopID -> *mvccLoop
	pins  pinRegistry

	// handles tracks unreleased snapshots for the pinned-snapshot and
	// snapshot-age gauges; correctness never depends on it (the root
	// reference inside the handle is what preserves the view). The map
	// holds lightweight tags rather than the handles themselves, so a
	// handle dropped without Release stays collectible: the GC frees it
	// (and its root) normally, and a finalizer prunes the stale tag so
	// the gauges don't count leaked handles forever.
	handleMu sync.Mutex
	handles  map[*snapTag]struct{}

	compactions  atomic.Int64
	reclaimedVer atomic.Int64
}

// mvccLoop is one loop's namespace: the tree root and the writer epoch, both
// guarded by wmu, plus the checkpoint mark and residency counters.
//
// The ownership rule: a node or chain whose tag equals epoch was created
// after the last freeze, so no handle can reach it and the holder of wmu
// may write it; anything with an older tag may be reachable from a handle
// and is never written again. Children of a frozen node are frozen (a
// frozen node is never relinked), so the owned nodes are a connected top of
// the tree.
type mvccLoop struct {
	wmu   sync.Mutex
	root  *treapNode
	epoch uint64
	ckpt  atomic.Pointer[int64] // nil until the first Flush

	liveVersions atomic.Int64
	liveBytes    atomic.Int64
}

// treapNode is one node of the vertex index; chain holds the vertex's
// versions. Writable only under its loop's wmu while epoch is current.
type treapNode struct {
	key         stream.VertexID
	prio        uint64
	left, right *treapNode
	epoch       uint64
	chain       vchain
}

// version is one stored payload. The bytes are never modified once stored:
// an overwrite swaps the slice, so readers handed the old one keep it.
type version struct {
	iter int64
	data []byte
}

// vchain is a version chain in ascending iteration order, tagged like a
// node: copying a node copies the tag with the slice header, so the copy
// still knows a frozen chain may share the backing array, whose slots below
// the frozen chain's length are then read-only (see put).
type vchain struct {
	vers  []version
	epoch uint64
}

// NewMVCCStore returns an empty copy-on-write store. It reclaims superseded
// versions only when Compact is called: the engine's master compacts the
// main loop to its checkpoint horizon as iterations terminate.
func NewMVCCStore() *MVCCStore {
	return &MVCCStore{handles: make(map[*snapTag]struct{})}
}

func (s *MVCCStore) loop(l LoopID) *mvccLoop {
	if lp, ok := s.loops.Load(l); ok {
		return lp.(*mvccLoop)
	}
	lp, _ := s.loops.LoadOrStore(l, &mvccLoop{})
	return lp.(*mvccLoop)
}

func (s *MVCCStore) lookup(l LoopID) *mvccLoop {
	if lp, ok := s.loops.Load(l); ok {
		return lp.(*mvccLoop)
	}
	return nil
}

// Put implements Store. A re-delivered identical write is a no-op with zero
// allocations and zero copied nodes. Between two
// snapshots a write is one descent, an in-place chain append and one
// allocation, the payload copy.
func (s *MVCCStore) Put(loop LoopID, vertex stream.VertexID, iteration int64, data []byte) error {
	lp := s.loop(loop)
	lp.wmu.Lock()
	dVer, dBytes := lp.put(vertex, prioOf(vertex), iteration, data)
	// The gauges move under wmu, like Compact's and Truncate's subtractions,
	// so a reader never sees a version subtracted before it was added.
	if dVer != 0 {
		lp.liveVersions.Add(dVer)
	}
	if dBytes != 0 {
		lp.liveBytes.Add(dBytes)
	}
	lp.wmu.Unlock()
	return nil
}

// put writes the version under wmu and reports the residency deltas.
func (lp *mvccLoop) put(key stream.VertexID, prio uint64, iteration int64, data []byte) (dVer, dBytes int64) {
	ep := lp.epoch
	link := &lp.root
	var frozen **treapNode // the link holding the first frozen node on the path
	n := lp.root
	for n != nil && n.prio > prio {
		if frozen == nil && n.epoch != ep {
			frozen = link
		}
		if key < n.key {
			link = &n.left
		} else {
			link = &n.right
		}
		n = *link
	}
	if frozen == nil && n != nil && n.epoch != ep {
		frozen = link
	}
	// prioOf is a bijection, so the search stops either at key's own node or
	// at the subtree a node for key belongs above.
	exists := n != nil && n.key == key
	if exists {
		if i, exact := n.chain.search(iteration); exact && bytes.Equal(n.chain.vers[i].data, data) {
			return 0, 0
		}
	}
	cp := bytes.Clone(data)
	if frozen != nil {
		link = lp.thaw(frozen, key, prio)
	}
	if !exists {
		l, r := lp.split(*link, key)
		*link = &treapNode{key: key, prio: prio, left: l, right: r, epoch: ep,
			chain: vchain{vers: append(make([]version, 0, 4), version{iteration, cp}), epoch: ep}}
		return 1, int64(len(cp))
	}
	if replaced, overwrote := (*link).chain.put(ep, iteration, cp); overwrote {
		return 0, int64(len(cp)) - replaced
	}
	return 1, int64(len(cp))
}

// owned returns n if the current epoch created it, else a copy it did.
func (lp *mvccLoop) owned(n *treapNode) *treapNode {
	if n.epoch == lp.epoch {
		return n
	}
	cp := *n
	cp.epoch = lp.epoch
	return &cp
}

// thaw replaces the nodes on key's search path from *link down to key's own
// node (or to where one would be inserted) by owned copies, and returns the
// link — now inside an owned node — that the search stops at.
func (lp *mvccLoop) thaw(link **treapNode, key stream.VertexID, prio uint64) **treapNode {
	for n := *link; n != nil && n.prio >= prio; n = *link {
		n = lp.owned(n)
		*link = n
		if n.prio == prio {
			break
		}
		if key < n.key {
			link = &n.left
		} else {
			link = &n.right
		}
	}
	return link
}

// split cuts the subtree at n into the keys below and above key (key itself
// is absent), relinking owned nodes in place and copying frozen ones.
func (lp *mvccLoop) split(n *treapNode, key stream.VertexID) (l, r *treapNode) {
	lt, rt := &l, &r
	for n != nil {
		n = lp.owned(n)
		if n.key < key {
			*lt, lt, n = n, &n.right, n.right
		} else {
			*rt, rt, n = n, &n.left, n.left
		}
	}
	*lt, *rt = nil, nil
	return l, r
}

// freeze hands out the current root and moves the epoch on: everything
// reachable from the returned root is immutable from here on.
func (lp *mvccLoop) freeze() *treapNode {
	lp.wmu.Lock()
	root := lp.root
	lp.epoch++
	lp.wmu.Unlock()
	return root
}

// Latest implements Store: one descent of the live tree under the writer
// lock (the live tree is mutated in place; only frozen roots are lock-free).
func (s *MVCCStore) Latest(loop LoopID, vertex stream.VertexID, maxIter int64) ([]byte, int64, error) {
	lp := s.lookup(loop)
	if lp == nil {
		return nil, 0, ErrNotFound
	}
	lp.wmu.Lock()
	data, iter, ok := find(lp.root, vertex).latest(maxIter)
	lp.wmu.Unlock()
	if !ok {
		return nil, 0, ErrNotFound
	}
	return data, iter, nil
}

// Scan implements Store. It freezes the root exactly like Snapshot and walks
// it outside the lock: a consistent point-in-time view with no record
// materialization, and concurrent writers are blocked for O(1).
func (s *MVCCStore) Scan(loop LoopID, maxIter int64, fn func(Record) error) error {
	lp := s.lookup(loop)
	if lp == nil {
		return nil
	}
	return scanTree(lp.freeze(), maxIter, fn)
}

func scanTree(n *treapNode, maxIter int64, fn func(Record) error) error {
	if n == nil {
		return nil
	}
	if err := scanTree(n.left, maxIter, fn); err != nil {
		return err
	}
	if data, iter, ok := n.chain.latest(maxIter); ok {
		if err := fn(Record{Vertex: n.key, Iteration: iter, Data: data}); err != nil {
			return err
		}
	}
	return scanTree(n.right, maxIter, fn)
}

// Flush implements Store: it records the checkpoint mark (all state is
// already "durable" in memory).
func (s *MVCCStore) Flush(loop LoopID, upTo int64) error {
	lp := s.loop(loop)
	lp.wmu.Lock()
	defer lp.wmu.Unlock()
	if ck := lp.ckpt.Load(); ck == nil || upTo > *ck {
		v := upTo
		lp.ckpt.Store(&v)
	}
	return nil
}

// LastCheckpoint implements Store.
func (s *MVCCStore) LastCheckpoint(loop LoopID) (int64, error) {
	lp := s.lookup(loop)
	if lp == nil {
		return 0, ErrNotFound
	}
	ck := lp.ckpt.Load()
	if ck == nil {
		return 0, ErrNotFound
	}
	return *ck, nil
}

// Compact implements Store: chains are rewritten below keepFrom (clamped at
// the oldest pin) into fresh nodes under a new root; subtrees with nothing
// to drop are shared with the old root, which outstanding snapshot handles
// keep intact.
func (s *MVCCStore) Compact(loop LoopID, keepFrom int64) error {
	keepFrom = s.pins.clamp(loop, keepFrom)
	lp := s.lookup(loop)
	if lp == nil {
		return nil
	}
	lp.wmu.Lock()
	defer lp.wmu.Unlock()
	var rc reclaim
	lp.root = lp.compactTree(lp.root, keepFrom, &rc)
	lp.liveVersions.Add(-rc.versions)
	lp.liveBytes.Add(-rc.bytes)
	s.reclaimedVer.Add(rc.versions)
	s.compactions.Add(1)
	return nil
}

// Truncate implements Store: the crash-recovery floor, deliberately not
// clamped by pins (see Store.Pin).
func (s *MVCCStore) Truncate(loop LoopID, above int64) error {
	lp := s.lookup(loop)
	if lp == nil {
		return nil
	}
	lp.wmu.Lock()
	defer lp.wmu.Unlock()
	var rc reclaim
	lp.root = lp.truncateTree(lp.root, above, &rc)
	lp.liveVersions.Add(-rc.versions)
	lp.liveBytes.Add(-rc.bytes)
	return nil
}

// DropLoop implements Store. Outstanding handles on the loop keep reading
// their captured root; only the live index disappears.
func (s *MVCCStore) DropLoop(loop LoopID) error {
	s.loops.Delete(loop)
	return nil
}

// Pin implements Store.
func (s *MVCCStore) Pin(loop LoopID, iter int64) func() {
	return s.pins.pin(loop, iter)
}

// Close implements Store: it drops all loops. Idempotent.
func (s *MVCCStore) Close() error {
	s.loops.Range(func(k, _ any) bool {
		s.loops.Delete(k)
		return true
	})
	return nil
}

// NumVersions reports the number of live versions in a loop (the published
// root's, not any handle's).
func (s *MVCCStore) NumVersions(loop LoopID) int {
	lp := s.lookup(loop)
	if lp == nil {
		return 0
	}
	return int(lp.liveVersions.Load())
}

// Snapshot returns an O(1) read-only handle on the loop's current state:
// one uncontended lock to grab the root and move the writer epoch on, no
// copying. The handle stays exactly as consistent and complete as it was at
// the grab no matter what Put, Compact, Truncate or DropLoop do afterwards;
// Release it when done so the pinned-snapshot gauges (and the GC) can let
// its epoch go.
func (s *MVCCStore) Snapshot(loop LoopID) Snapshot {
	var root *treapNode
	if lp := s.lookup(loop); lp != nil {
		root = lp.freeze()
	}
	h := &mvccSnap{store: s, root: root, tag: &snapTag{taken: time.Now()}}
	s.handleMu.Lock()
	s.handles[h.tag] = struct{}{}
	s.handleMu.Unlock()
	// The gauge map references the tag, never the handle, so a leaked
	// handle is still collectible; the finalizer then retires its tag.
	runtime.SetFinalizer(h, (*mvccSnap).finalize)
	return h
}

// mvccSnap is a point-in-time view: just a captured, frozen root. root is
// written once at construction and never again, and nothing reachable from
// it is written after the freeze — Latest/Scan on one handle from many
// goroutines, concurrent with Release and with writers, are race-free
// because every method only ever reads.
type mvccSnap struct {
	store *MVCCStore
	root  *treapNode
	tag   *snapTag
	once  sync.Once
}

// snapTag is the store-side gauge entry for one handle. It carries no
// reference to the handle or its root.
type snapTag struct {
	taken time.Time
}

// Latest implements Snapshot.
func (h *mvccSnap) Latest(vertex stream.VertexID, maxIter int64) ([]byte, int64, error) {
	data, iter, ok := find(h.root, vertex).latest(maxIter)
	if !ok {
		return nil, 0, ErrNotFound
	}
	return data, iter, nil
}

// Scan implements Snapshot.
func (h *mvccSnap) Scan(maxIter int64, fn func(Record) error) error {
	return scanTree(h.root, maxIter, fn)
}

// Release implements Snapshot. Idempotent. It deliberately does not clear
// h.root: a reader racing a Release (e.g. a ReadState mid-Scan while
// recovery swaps the engine's SnapshotSource) keeps its coherent view
// instead of hitting a data race or a spurious ErrNotFound. Dropping the
// tag removes the store-side reference; the root is freed as soon as the
// handle itself is unreachable.
func (h *mvccSnap) Release() {
	h.once.Do(func() {
		runtime.SetFinalizer(h, nil)
		h.store.dropTag(h.tag)
	})
}

// finalize retires a leaked handle's gauge entry once the GC proves the
// handle (and therefore its root) unreachable.
func (h *mvccSnap) finalize() {
	h.store.dropTag(h.tag)
}

func (s *MVCCStore) dropTag(t *snapTag) {
	s.handleMu.Lock()
	delete(s.handles, t)
	s.handleMu.Unlock()
}

// StoreStats implements Store.
func (s *MVCCStore) StoreStats() StoreStats {
	st := StoreStats{
		Compactions:       s.compactions.Load(),
		ReclaimedVersions: s.reclaimedVer.Load(),
	}
	s.loops.Range(func(_, v any) bool {
		lp := v.(*mvccLoop)
		st.Loops++
		st.LiveVersions += lp.liveVersions.Load()
		st.ResidentBytes += lp.liveBytes.Load()
		return true
	})
	s.handleMu.Lock()
	now := time.Now()
	for tag := range s.handles {
		st.PinnedSnapshots++
		if age := now.Sub(tag.taken); age > st.OldestSnapshotAge {
			st.OldestSnapshotAge = age
		}
	}
	s.handleMu.Unlock()
	st.PinnedSnapshots += s.pins.count()
	return st
}

var _ Store = (*MVCCStore)(nil)

// ---- treap machinery ----

// prioOf derives a node's heap priority from its key (splitmix64 finalizer):
// deterministic, so compaction and truncation can rebuild chains without
// re-randomizing, uniform enough to keep the treap balanced in expectation
// regardless of insertion order, and a bijection — two keys never tie.
func prioOf(key stream.VertexID) uint64 {
	x := uint64(key) + 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// find returns the chain at key, or nil. Pure read: safe on a frozen root,
// and on the live one under wmu.
func find(n *treapNode, key stream.VertexID) *vchain {
	for n != nil {
		switch {
		case key == n.key:
			return &n.chain
		case key < n.key:
			n = n.left
		default:
			n = n.right
		}
	}
	return nil
}

// join merges two treaps where every key of l precedes every key of r
// (deletion support for truncated-empty chains), building fresh nodes along
// the seam like the passes that call it.
func (lp *mvccLoop) join(l, r *treapNode) *treapNode {
	if l == nil {
		return r
	}
	if r == nil {
		return l
	}
	if l.prio >= r.prio {
		cp := *l
		cp.epoch = lp.epoch
		cp.right = lp.join(l.right, r)
		return &cp
	}
	cp := *r
	cp.epoch = lp.epoch
	cp.left = lp.join(l, r.left)
	return &cp
}

// reclaim accumulates what a compaction or truncation pass dropped.
type reclaim struct{ versions, bytes int64 }

// compactTree rewrites every chain to keep the freshest version <= keepFrom
// plus all newer ones. It builds fresh nodes even where it could write an
// owned one: the pass runs off the commit path, and a fresh node with a
// fresh exact-size chain is what lets the dropped payloads go. Untouched
// subtrees are returned as-is (pointer equality), so an idle region of the
// key space costs nothing to "compact".
func (lp *mvccLoop) compactTree(n *treapNode, keepFrom int64, rc *reclaim) *treapNode {
	if n == nil {
		return nil
	}
	l := lp.compactTree(n.left, keepFrom, rc)
	r := lp.compactTree(n.right, keepFrom, rc)
	c, dropped := n.chain.compacted(keepFrom, lp.epoch, rc)
	if l == n.left && r == n.right && !dropped {
		return n
	}
	return &treapNode{key: n.key, prio: n.prio, left: l, right: r, epoch: lp.epoch, chain: c}
}

// truncateTree drops every version above `above`; vertices whose chains
// empty out are deleted from the index entirely.
func (lp *mvccLoop) truncateTree(n *treapNode, above int64, rc *reclaim) *treapNode {
	if n == nil {
		return nil
	}
	l := lp.truncateTree(n.left, above, rc)
	r := lp.truncateTree(n.right, above, rc)
	c, dropped := n.chain.truncated(above, lp.epoch, rc)
	if len(c.vers) == 0 {
		return lp.join(l, r)
	}
	if l == n.left && r == n.right && !dropped {
		return n
	}
	return &treapNode{key: n.key, prio: n.prio, left: l, right: r, epoch: lp.epoch, chain: c}
}

// ---- version chains ----

// latest returns the freshest version <= maxIter. Nil receiver: absent
// vertex.
func (c *vchain) latest(maxIter int64) ([]byte, int64, bool) {
	if c == nil {
		return nil, 0, false
	}
	i := c.upperBound(maxIter)
	if i == 0 {
		return nil, 0, false
	}
	return c.vers[i-1].data, c.vers[i-1].iter, true
}

// upperBound returns the first index with an iteration > iter. Unlike
// search(iter+1) it is safe at iter == MaxInt64 (readers pass it for "the
// newest").
func (c *vchain) upperBound(iter int64) int {
	lo, hi := 0, len(c.vers)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c.vers[mid].iter <= iter {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// search returns the insertion index for iteration (the first index with an
// iteration >= it) and whether an exact match sits there. Commits arrive in
// ascending order, so the tail is tried before the binary search.
func (c *vchain) search(iteration int64) (int, bool) {
	hi := len(c.vers)
	if hi == 0 || c.vers[hi-1].iter < iteration {
		return hi, false
	}
	lo := 0
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c.vers[mid].iter < iteration {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, c.vers[lo].iter == iteration
}

// put sets the version at iteration to data on behalf of epoch ep, which
// must own the node holding c. A new newest version is appended whoever
// created the backing array: a frozen chain sharing it ends below the
// appended slot, and only the one live chain ever appends. An overwrite or
// an out-of-order insert edits slots a frozen chain can see, so a chain the
// epoch did not create is first moved to an array of its own. replaced is
// the byte length of an overwritten payload (overwrote reports whether one
// existed).
func (c *vchain) put(ep uint64, iteration int64, data []byte) (replaced int64, overwrote bool) {
	i, exact := c.search(iteration)
	if i == len(c.vers) {
		c.vers = append(c.vers, version{iteration, data})
		return 0, false
	}
	if c.epoch != ep {
		c.vers, c.epoch = append(make([]version, 0, len(c.vers)+1), c.vers...), ep
	}
	if exact {
		replaced = int64(len(c.vers[i].data))
		c.vers[i].data = data
		return replaced, true
	}
	c.vers = append(c.vers, version{})
	copy(c.vers[i+1:], c.vers[i:])
	c.vers[i] = version{iteration, data}
	return 0, false
}

// compacted returns the chain keeping the freshest version <= keepFrom plus
// all newer ones, and whether anything dropped (if not, the receiver's
// value). The kept window is copied into a fresh exact-size array tagged ep
// — a subslice of the old array would keep every dropped payload
// GC-reachable while the residency gauges claim it reclaimed.
func (c *vchain) compacted(keepFrom int64, ep uint64, rc *reclaim) (vchain, bool) {
	i := c.upperBound(keepFrom)
	if i <= 1 {
		return *c, false
	}
	keep := i - 1
	for _, v := range c.vers[:keep] {
		rc.bytes += int64(len(v.data))
	}
	rc.versions += int64(keep)
	return vchain{vers: exactCopy(c.vers[keep:]), epoch: ep}, true
}

// truncated returns the chain without the versions above `above` (empty if
// none is left), and whether anything dropped. Like compacted, the kept
// prefix is copied so the dropped payloads actually become unreachable.
func (c *vchain) truncated(above int64, ep uint64, rc *reclaim) (vchain, bool) {
	i := c.upperBound(above)
	if i == len(c.vers) {
		return *c, false
	}
	for _, v := range c.vers[i:] {
		rc.bytes += int64(len(v.data))
	}
	rc.versions += int64(len(c.vers) - i)
	return vchain{vers: exactCopy(c.vers[:i]), epoch: ep}, true
}

// exactCopy copies vers into an array of exactly its length (append and
// slices.Clone round capacity up to a size class).
func exactCopy(vers []version) []version {
	out := make([]version, len(vers))
	copy(out, vers)
	return out
}
