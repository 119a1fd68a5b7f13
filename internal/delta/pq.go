package delta

import "tornado/internal/stream"

// Item is one queued activation: a vertex with a significant pending delta,
// plus the progress token the engine parked with it (released when the
// activation is drained or the entry merged away).
type Item struct {
	ID       stream.VertexID
	Priority float64
	Token    int64
}

// Queue is an indexed heap of pending activations, one entry per vertex,
// ordered by token ascending and, among equal tokens, by priority
// descending: activations fire in iteration order, the highest-impact first
// within an iteration. The index makes merge-in-place O(log n): when a new
// delta arrives for an already-queued vertex the engine recomputes the
// merged pending's priority and calls Update instead of pushing a
// duplicate, so an activation is never lost and never doubled, and the
// entry keeps the token it was pushed with. Not safe for concurrent use;
// each processor owns one.
type Queue struct {
	items []Item
	pos   map[stream.VertexID]int
}

// NewQueue returns an empty activation queue.
func NewQueue() *Queue {
	return &Queue{pos: make(map[stream.VertexID]int)}
}

// Len returns the number of queued activations.
func (q *Queue) Len() int { return len(q.items) }

// Priority returns the queued priority of id, if present.
func (q *Queue) Priority(id stream.VertexID) (float64, bool) {
	i, ok := q.pos[id]
	if !ok {
		return 0, false
	}
	return q.items[i].Priority, true
}

// Push queues a new activation. The vertex must not already be queued
// (callers check Priority first and Update instead); pushing a duplicate
// panics, because it would leak the held token of one of the entries.
func (q *Queue) Push(id stream.VertexID, prio float64, token int64) {
	if _, ok := q.pos[id]; ok {
		panic("delta: Push of already-queued vertex")
	}
	q.items = append(q.items, Item{ID: id, Priority: prio, Token: token})
	q.pos[id] = len(q.items) - 1
	q.up(len(q.items) - 1)
}

// Update re-scores an already-queued vertex (after its pending absorbed
// another delta) and restores the heap order. Reports whether the vertex
// was queued.
func (q *Queue) Update(id stream.VertexID, prio float64) bool {
	i, ok := q.pos[id]
	if !ok {
		return false
	}
	old := q.items[i].Priority
	q.items[i].Priority = prio
	if prio > old {
		q.up(i)
	} else if prio < old {
		q.down(i)
	}
	return true
}

// PopReady removes and returns the head activation if its token is at or
// below upTo; a later token leaves the queue untouched.
func (q *Queue) PopReady(upTo int64) (Item, bool) {
	if len(q.items) == 0 || q.items[0].Token > upTo {
		return Item{}, false
	}
	return q.PopMax()
}

// PopMax removes and returns the head activation: the lowest token, and
// among equal tokens the highest priority.
func (q *Queue) PopMax() (Item, bool) {
	if len(q.items) == 0 {
		return Item{}, false
	}
	top := q.items[0]
	q.swap(0, len(q.items)-1)
	q.items = q.items[:len(q.items)-1]
	delete(q.pos, top.ID)
	if len(q.items) > 0 {
		q.down(0)
	}
	return top, true
}

// Remove deletes a queued activation by vertex, returning the removed item
// (so the caller can release its token).
func (q *Queue) Remove(id stream.VertexID) (Item, bool) {
	i, ok := q.pos[id]
	if !ok {
		return Item{}, false
	}
	it := q.items[i]
	last := len(q.items) - 1
	q.swap(i, last)
	q.items = q.items[:last]
	delete(q.pos, id)
	if i < last {
		// The displaced element may need to move either direction.
		q.down(i)
		q.up(i)
	}
	return it, true
}

func (q *Queue) swap(i, j int) {
	q.items[i], q.items[j] = q.items[j], q.items[i]
	q.pos[q.items[i].ID] = i
	q.pos[q.items[j].ID] = j
}

// before reports whether a is ahead of b in the queue order.
func before(a, b Item) bool {
	if a.Token != b.Token {
		return a.Token < b.Token
	}
	return a.Priority > b.Priority
}

func (q *Queue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !before(q.items[i], q.items[parent]) {
			return
		}
		q.swap(i, parent)
		i = parent
	}
}

func (q *Queue) down(i int) {
	n := len(q.items)
	for {
		l, r := 2*i+1, 2*i+2
		head := i
		if l < n && before(q.items[l], q.items[head]) {
			head = l
		}
		if r < n && before(q.items[r], q.items[head]) {
			head = r
		}
		if head == i {
			return
		}
		q.swap(i, head)
		i = head
	}
}
