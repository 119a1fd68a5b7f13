package engine

import (
	"math/rand"
	"slices"
	"testing"

	"tornado/internal/stream"
)

// TestJournalAgainstModel drives the input journal with random operation
// sequences and checks Residual, RecoverResidual and Size against a
// brute-force model for every fork iteration. This is the invariant branch
// exactness rests on: an input is residual at fork iteration i exactly when
// it is not committed at or below i. Bursts of in-flight inputs push the
// sequence ring through growth and wrap-around; a
// "migration" hands a vertex's applied-but-uncommitted sequences to a copy,
// as a live hand-off does.
func TestJournalAgainstModel(t *testing.T) {
	type entry struct {
		id        int // the tuple's value: identifies the input across re-ingestion
		committed bool
		iter      int64
	}
	for trial := 0; trial < 12; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		j := newInputJournal()
		model := map[uint64]*entry{}              // retained inputs by current sequence
		applied := map[stream.VertexID][]uint64{} // vertex.jseqs
		nextID, nextIter, pruneFloor := 0, int64(0), int64(-1)
		modelBase, nextSeq := uint64(0), uint64(0)
		maxRing := len(j.ring)

		ingest := func(v stream.VertexID, id int, apply bool) {
			seq := j.Ingested(stream.Value(stream.Timestamp(id), v, id))
			model[seq] = &entry{id: id}
			nextSeq = seq + 1
			if apply {
				applied[v] = append(applied[v], seq)
			}
		}
		// residual lists, in sequence order, the inputs the model says are
		// missing from a snapshot at upTo.
		residual := func(upTo int64) []int {
			var seqs []uint64
			for seq, e := range model {
				if !e.committed || e.iter > max(upTo, pruneFloor) {
					seqs = append(seqs, seq)
				}
			}
			slices.Sort(seqs)
			ids := make([]int, len(seqs))
			for i, seq := range seqs {
				ids[i] = model[seq].id
			}
			return ids
		}
		check := func(what string, got []stream.Tuple, want []int) {
			t.Helper()
			ids := make([]int, len(got))
			for i, tup := range got {
				ids[i] = tup.Value.(int)
			}
			if !slices.Equal(ids, want) {
				t.Fatalf("trial %d: %s = %v; model wants %v", trial, what, ids, want)
			}
		}

		for op := 0; op < 240; op++ {
			v := stream.VertexID(rng.Intn(8))
			switch rng.Intn(7) {
			case 0, 1: // ingest, usually applied at once
				ingest(v, nextID, rng.Intn(4) > 0)
				nextID++
			case 2: // a burst that stays in flight: the ring has to grow
				for n := rng.Intn(512); n > 0; n-- {
					ingest(v, nextID, rng.Intn(8) > 0)
					nextID++
				}
			case 3: // commit a vertex at the next iteration
				nextIter++
				j.Committed(applied[v], nextIter)
				for _, seq := range applied[v] {
					model[seq].committed, model[seq].iter = true, nextIter
				}
				applied[v] = applied[v][:0]
			case 4: // the vertex migrates: the new owner installs a copy of its sequences
				applied[v] = slices.Clone(applied[v])
			case 5: // prune at a terminated iteration
				if nextIter > 0 {
					pruneFloor = max(pruneFloor, rng.Int63n(nextIter+1))
					j.Prune(pruneFloor)
					// The ring lets an entry go once it and every older entry has been
					// pruned or extracted; until then a committed one counts as held.
					for ; modelBase < nextSeq; modelBase++ {
						if e := model[modelBase]; e != nil && (!e.committed || e.iter > pruneFloor) {
							break
						}
						delete(model, modelBase)
					}
				}
			case 6: // crash recovery at a checkpoint: extract, then re-ingest
				if rng.Intn(4) > 0 {
					break
				}
				resume := pruneFloor
				if nextIter > resume {
					resume += rng.Int63n(nextIter - pruneFloor + 1)
				}
				want := residual(resume)
				check("RecoverResidual", j.RecoverResidual(resume), want)
				for seq, e := range model {
					if !e.committed || e.iter > resume {
						delete(model, seq)
					}
				}
				clear(applied) // the vertices died with the incarnation
				for _, id := range want {
					ingest(stream.VertexID(rng.Intn(8)), id, false)
				}
			}
			maxRing = max(maxRing, len(j.ring))
			if op%3 != 0 {
				continue // the checks below walk every retained input
			}

			// Forks happen at the advancing frontier: at or above the prune floor.
			forkIter := pruneFloor
			if nextIter > forkIter {
				forkIter += rng.Int63n(nextIter - pruneFloor + 1)
			}
			check("Residual", j.Residual(forkIter), residual(forkIter))
			un, com := 0, 0
			for _, e := range model {
				if e.committed {
					com++
				} else {
					un++
				}
			}
			if gu, gc := j.Size(); gu != un || gc != com {
				t.Fatalf("trial %d op %d: Size = (%d, %d); model wants (%d, %d)", trial, op, gu, gc, un, com)
			}
		}
		if maxRing == 256 {
			t.Fatalf("trial %d never grew the ring", trial)
		}
	}
}
