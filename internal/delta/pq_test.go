package delta

import (
	"math/rand"
	"sort"
	"testing"

	"tornado/internal/stream"
)

// checkInvariants verifies the heap property and the position index after
// every mutation: no child is ahead of its parent in (token ascending,
// priority descending) order, and pos maps every queued vertex to its actual
// slot (and nothing else).
func checkInvariants(t *testing.T, q *Queue) {
	t.Helper()
	for i := 1; i < len(q.items); i++ {
		parent := (i - 1) / 2
		if before(q.items[i], q.items[parent]) {
			t.Fatalf("heap violation: items[%d]=%+v is ahead of its parent items[%d]=%+v",
				i, q.items[i], parent, q.items[parent])
		}
	}
	if len(q.pos) != len(q.items) {
		t.Fatalf("pos has %d entries, items has %d", len(q.pos), len(q.items))
	}
	for i, it := range q.items {
		if q.pos[it.ID] != i {
			t.Fatalf("pos[%d]=%d but vertex sits at slot %d", it.ID, q.pos[it.ID], i)
		}
	}
}

// ref is the trivially-correct model the queue is checked against: a map
// from vertex to its current (priority, token).
type ref map[stream.VertexID]Item

// popMax removes the model's head: the lowest token, then the highest
// priority, then (arbitrarily, for determinism) the lowest ID.
func (r ref) popMax() (Item, bool) {
	best, ok := Item{}, false
	for _, it := range r {
		if !ok || it.Token < best.Token ||
			(it.Token == best.Token && (it.Priority > best.Priority ||
				(it.Priority == best.Priority && it.ID < best.ID))) {
			best, ok = it, true
		}
	}
	if ok {
		delete(r, best.ID)
	}
	return best, ok
}

// TestQueueRandomOps drives random push/update/pop/remove interleavings
// against the reference model, checking heap + index invariants after every
// operation and that a drain comes out in (token ascending, priority
// descending) order. Tokens come from a few iterations, so both orderings
// are exercised.
func TestQueueRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for round := 0; round < 50; round++ {
		q := NewQueue()
		model := ref{}
		for op := 0; op < 400; op++ {
			id := stream.VertexID(rng.Intn(40))
			switch rng.Intn(5) {
			case 0, 1: // push-or-update, the engine's deltaSchedule shape
				prio := float64(rng.Intn(100)) / 4
				if _, queued := q.Priority(id); queued {
					if !q.Update(id, prio) {
						t.Fatal("Update returned false for a queued vertex")
					}
					it := model[id]
					it.Priority = prio
					model[id] = it
				} else {
					tok := int64(rng.Intn(4))
					q.Push(id, prio, tok)
					model[id] = Item{ID: id, Priority: prio, Token: tok}
				}
			case 2: // pop
				got, ok := q.PopMax()
				want, wok := model.popMax()
				if ok != wok {
					t.Fatalf("PopMax ok=%v, model ok=%v", ok, wok)
				}
				if ok && (got.Token != want.Token || got.Priority != want.Priority) {
					t.Fatalf("PopMax = (token %d, priority %v), model head = (token %d, priority %v)",
						got.Token, got.Priority, want.Token, want.Priority)
				}
				if ok && got.ID != want.ID {
					// Ties may pop a different vertex; put the model's choice
					// back and take the heap's, so the entries stay matched.
					model[want.ID] = want
					want = model[got.ID]
					delete(model, got.ID)
					if got.Token != want.Token || got.Priority != want.Priority {
						t.Fatalf("PopMax = %+v, model holds %+v: entry lost or swapped", got, want)
					}
				}
			case 3: // remove
				got, ok := q.Remove(id)
				want, wok := model[id]
				if ok != wok {
					t.Fatalf("Remove(%d) ok=%v, model ok=%v", id, ok, wok)
				}
				if ok {
					delete(model, id)
					if got.Token != want.Token || got.Priority != want.Priority {
						t.Fatalf("Remove(%d)=%+v, model=%+v", id, got, want)
					}
				}
			case 4: // read-only probe
				p, ok := q.Priority(id)
				want, wok := model[id]
				if ok != wok || (ok && p != want.Priority) {
					t.Fatalf("Priority(%d)=(%v,%v), model=(%v,%v)", id, p, ok, want.Priority, wok)
				}
			}
			checkInvariants(t, q)
		}
		// Drain: entries must come out in queue order and the token
		// multiset must match the model exactly (no token leaked or doubled).
		var gotToks, wantToks []int64
		var last Item
		for n := 0; ; n++ {
			it, ok := q.PopMax()
			if !ok {
				break
			}
			if n > 0 && before(it, last) {
				t.Fatalf("drain out of order: %+v after %+v", it, last)
			}
			last = it
			gotToks = append(gotToks, it.Token)
		}
		for _, it := range model {
			wantToks = append(wantToks, it.Token)
		}
		sort.Slice(gotToks, func(i, j int) bool { return gotToks[i] < gotToks[j] })
		sort.Slice(wantToks, func(i, j int) bool { return wantToks[i] < wantToks[j] })
		if len(gotToks) != len(wantToks) {
			t.Fatalf("drained %d tokens, model holds %d", len(gotToks), len(wantToks))
		}
		for i := range gotToks {
			if gotToks[i] != wantToks[i] {
				t.Fatalf("token multiset mismatch at %d: %d vs %d", i, gotToks[i], wantToks[i])
			}
		}
	}
}

// TestQueueMergeKeepsActivation is the no-lost-activation regression: when a
// delta arrives for a vertex already queued, the engine calls Update (never
// a second Push), and the single entry must survive with the new priority
// and the ORIGINAL token — raising, lowering, and equal re-scores included.
// The three share an iteration, so the re-scores decide the pop order.
func TestQueueMergeKeepsActivation(t *testing.T) {
	q := NewQueue()
	q.Push(7, 1.0, 41)
	q.Push(3, 5.0, 41)
	q.Push(9, 3.0, 41)

	// Merge raises vertex 7 above everything.
	if !q.Update(7, 9.5) {
		t.Fatal("Update lost the queued vertex")
	}
	checkInvariants(t, q)
	if p, ok := q.Priority(7); !ok || p != 9.5 {
		t.Fatalf("Priority(7) = %v,%v after merge; want 9.5", p, ok)
	}
	it, ok := q.PopMax()
	if !ok || it.ID != 7 || it.Token != 41 {
		t.Fatalf("PopMax = %+v; want vertex 7 with its original token 41", it)
	}

	// Merge lowers vertex 3 below vertex 9; both still drain exactly once.
	if !q.Update(3, 0.5) {
		t.Fatal("Update lost vertex 3")
	}
	checkInvariants(t, q)
	first, _ := q.PopMax()
	second, _ := q.PopMax()
	if first.ID != 9 || second.ID != 3 || second.Token != 41 {
		t.Fatalf("drain after lowering = %+v, %+v; want 9 then 3 (token 41)", first, second)
	}
	if _, ok := q.PopMax(); ok {
		t.Fatal("queue not empty after draining both entries")
	}

	// A duplicate Push for a queued vertex must panic loudly (it would leak
	// a held token), never silently shadow the existing activation.
	q.Push(4, 2.0, 44)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Push did not panic")
		}
	}()
	q.Push(4, 3.0, 45)
}

// TestQueueTokenOrder pins the queue order rule by rule: a lower token pops
// first whatever the priorities, equal tokens pop by priority, Update keeps
// the token the entry was pushed with, and PopReady leaves an entry above its
// bound queued.
func TestQueueTokenOrder(t *testing.T) {
	q := NewQueue()
	q.Push(1, 100, 9) // highest priority, latest iteration
	q.Push(2, 0.5, 7)
	q.Push(3, 2.0, 8)
	q.Push(4, 5.0, 8)
	checkInvariants(t, q)

	// A lower token pops first, whatever the priorities.
	if it, _ := q.PopMax(); it.ID != 2 || it.Token != 7 {
		t.Fatalf("head = %+v; want vertex 2 (token 7) ahead of higher priorities at later tokens", it)
	}
	// Equal tokens pop by priority.
	if it, _ := q.PopMax(); it.ID != 4 {
		t.Fatalf("head = %+v; want vertex 4, the higher priority at token 8", it)
	}
	// Update keeps the older token: raising vertex 1 far above vertex 3 does
	// not move it ahead of token 8.
	if !q.Update(1, 1e9) {
		t.Fatal("Update lost vertex 1")
	}
	checkInvariants(t, q)
	if it, _ := q.PopMax(); it.ID != 3 || it.Token != 8 {
		t.Fatalf("head = %+v; want vertex 3 (token 8) ahead of the re-scored token-9 entry", it)
	}
	// PopReady fires only what its bound has reached.
	if it, ok := q.PopReady(8); ok {
		t.Fatalf("PopReady(8) = %+v; want nothing (the head's token is 9)", it)
	}
	if q.Len() != 1 {
		t.Fatalf("Len = %d after a refused PopReady; want 1", q.Len())
	}
	if it, ok := q.PopReady(9); !ok || it.ID != 1 || it.Token != 9 || it.Priority != 1e9 {
		t.Fatalf("PopReady(9) = %+v,%v; want vertex 1 with its original token 9 and the new priority", it, ok)
	}
	if _, ok := q.PopReady(1 << 62); ok {
		t.Fatal("PopReady on an empty queue returned an entry")
	}
}

// FuzzQueueOps feeds byte-driven operation sequences through the queue,
// checking structural invariants and conservation of entries throughout.
func FuzzQueueOps(f *testing.F) {
	f.Add([]byte{0, 10, 1, 20, 2, 0, 30, 3})
	f.Add([]byte{0, 1, 0, 2, 0, 3, 1, 1, 2, 3})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, ops []byte) {
		q := NewQueue()
		live := map[stream.VertexID]bool{}
		for i := 0; i+1 < len(ops); i += 2 {
			id := stream.VertexID(ops[i+1] % 16)
			prio := float64(ops[i+1] % 32)
			tok := int64(ops[i] / 4 % 4)
			switch ops[i] % 4 {
			case 0:
				if _, queued := q.Priority(id); queued {
					q.Update(id, prio)
				} else {
					q.Push(id, prio, tok)
					live[id] = true
				}
			case 1:
				var it Item
				var ok bool
				if tok%2 == 0 {
					it, ok = q.PopMax()
				} else {
					ready := q.Len() > 0 && q.items[0].Token <= tok
					if it, ok = q.PopReady(tok); ok != ready {
						t.Fatalf("PopReady(%d) ok=%v, but the head's readiness is %v", tok, ok, ready)
					}
				}
				if ok {
					delete(live, it.ID)
				}
			case 2:
				if _, ok := q.Remove(id); ok {
					delete(live, id)
				}
			case 3:
				q.Update(id, prio) // no-op unless queued
			}
			if q.Len() != len(live) {
				t.Fatalf("Len=%d but model holds %d", q.Len(), len(live))
			}
			for j := 1; j < len(q.items); j++ {
				if before(q.items[j], q.items[(j-1)/2]) {
					t.Fatalf("heap violation at %d", j)
				}
			}
			for j, it := range q.items {
				if q.pos[it.ID] != j {
					t.Fatalf("index desync at %d", j)
				}
			}
		}
	})
}
