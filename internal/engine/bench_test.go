package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"tornado/internal/lamport"
	"tornado/internal/storage"
	"tornado/internal/stream"
)

// newCommitProbe returns a step function that runs one main-loop commit in
// isolation: a vertex with four producers and four targets scatters, persists
// its version to the MVCC store and queues four update messages; the frame is
// then flushed and drained as its consumers would.
func newCommitProbe(tb testing.TB) (step func()) {
	store := storage.NewMVCCStore()
	e, err := New(Config{Processors: 1, DelayBound: 1 << 40, Kind: MainLoop, LoopID: storage.MainLoop,
		Store: store, Program: ssspProg{source: 1}, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { e.Stop(); store.Close() })
	p := e.cur().procs[0]
	v := p.ensure(1)
	for t := stream.VertexID(2); t <= 5; t++ {
		e := v.edge(t)
		e.add()
		e.Clock, e.Flags = stream.Timestamp(t), e.Flags|edgeClocked
		v.state.(*ssspState).SrcLens[t+10] = int64(t)
	}
	n := 0
	return func() {
		p.markDirty(v)
		v.activated = true // re-deliver the value to every target, as a seed or recovery commit does
		v.stamp = lamport.Stamp{Time: e.clock.Tick(), Owner: uint64(v.id)}
		p.commit(v)
		p.flushOut()
		w := p.takeLocal() // the targets are this (only) processor's: as run would
		for _, u := range w.Updates {
			p.tk.Release(u.Token)
		}
		p.putLocal(w)
		if n++; n%64 == 0 { // the main loop's CompactEvery: keeps the vertex's version chain short
			if err := store.Compact(storage.MainLoop, v.lastCommit); err != nil {
				tb.Fatal(err)
			}
		}
	}
}

// BenchmarkProcessorCommit measures one commit (see newCommitProbe).
// allocs/op is the in-tree twin of the harness's engine.allocs_per_commit
// without the protocol around it.
func BenchmarkProcessorCommit(b *testing.B) {
	step := newCommitProbe(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// BenchmarkHubInDegree measures what one more producer costs a consumer: for
// each of d producers, in shuffled ID order — the worst case for the sorted
// in records — the consumer receives the producer's PREPARE (acknowledged)
// and its valued COMMIT. A standing PREPARE from one extra producer keeps the
// consumer from committing, so the figure is the protocol's bookkeeping alone.
// Reported per edge; each iteration builds a fresh hub.
func BenchmarkHubInDegree(b *testing.B) {
	for _, d := range []int{64, 4096, 65536} {
		b.Run(fmt.Sprint(d), func(b *testing.B) {
			e, err := New(Config{Processors: 1, DelayBound: 1 << 40, Kind: MainLoop, LoopID: storage.MainLoop,
				Store: storage.NewMemStore(), Program: countProg{}, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			defer e.Stop()
			p := e.cur().procs[0]
			producers := rand.New(rand.NewSource(1)).Perm(d)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				hub := stream.VertexID(1<<32 + i)
				p.handlePrepare(msgPrepare{From: 1 << 31, To: hub, Stamp: lamport.Stamp{Time: 1, Owner: 1 << 31}})
				for n, from := range producers {
					from := stream.VertexID(from)
					p.handlePrepare(msgPrepare{From: from, To: hub, Stamp: lamport.Stamp{Time: 1, Owner: uint64(from)}})
					p.handleUpdate(msgUpdate{From: from, To: hub, Iteration: 1, Token: p.tk.AcquireFloor(2), Value: int64(1), HasValue: true})
					if n%1024 == 1023 { // a receive window's worth of acks
						p.flushOut()
						dropLocal(p)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*d), "ns/edge")
		})
	}
}

// The inner loop's steady state does not allocate: these pin the counts the
// edge records, the rings and the scratch buffers were introduced for.
func TestInnerLoopAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { newVertex(1, 1) }); n > 2 {
		t.Errorf("newVertex allocates %v times; want <= 2 (it made seven maps before edge records)", n)
	}

	v := newVertex(1, 1)
	v.state = int64(3)
	v.setTargets([]stream.VertexID{2, 3, 4, 8}, map[stream.VertexID]stream.Timestamp{2: 10, 3: 11, 4: 12, 8: 13})
	buf := make([]byte, 0, 256)
	if n := testing.AllocsPerRun(100, func() { buf, _ = StateCodec{}.appendVertex(buf[:0], v) }); n != 0 {
		t.Errorf("appendVertex into a warm buffer allocates %v times; want 0", n)
	}

	tr := NewTracker(0)
	if n := testing.AllocsPerRun(100, func() { tr.Release(tr.AcquireFloor(0)) }); n != 0 {
		t.Errorf("Tracker acquire+release allocates %v times; want 0", n)
	}

	j := newInputJournal()
	tuple := stream.AddEdge(1, 2, 3)
	seqs := make([]uint64, 0, 1)
	iter := int64(0)
	cycle := func() {
		seqs = append(seqs[:0], j.Ingested(tuple))
		iter++
		j.Committed(seqs, iter)
		j.Prune(iter)
	}
	for i := 0; i < 1024; i++ {
		cycle() // warm: wraps the ring
	}
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("journal ingest+commit+prune allocates %v times; want 0", n)
	}

	// A warm hop of one prepare, one ack and one update — queued, framed, sent,
	// received, replayed, and the prepare's ack all the way back — allocates
	// nothing: no message is boxed, frames and payload slices are recycled.
	// (The update's value is a small int64, which Go boxes without allocating;
	// a program value that needs a box is the program's allocation.) The race
	// detector makes sync.Pool drop a quarter of its puts, so only a normal
	// build can hold the pools to zero.
	if raceStretch == 1 {
		for _, local := range []bool{false, true} {
			hop, _ := newHopProbe(t, local, 3)
			for i := 0; i < 64; i++ {
				hop()
			}
			if n := testing.AllocsPerRun(256, hop); n != 0 {
				t.Errorf("a warm message hop (own vertices: %v) allocates %v times; want 0", local, n)
			}
		}
	}

	// parentCommitAllocs is what one warm newCommitProbe step allocates now
	// that the store appends a version in place (go test -bench
	// ProcessorCommit -benchmem: 6 while every Put copied its treap node and
	// chain, 12 before typed batches): the Context and the store's copy of
	// the payload; chain growth amortises below one.
	const parentCommitAllocs = 2
	step := newCommitProbe(t)
	for i := 0; i < 256; i++ {
		step()
	}
	if n := testing.AllocsPerRun(256, step); n > parentCommitAllocs {
		t.Errorf("a warm commit allocates %v times; the probe measured %d when the store began writing in place", n, parentCommitAllocs)
	}
}
