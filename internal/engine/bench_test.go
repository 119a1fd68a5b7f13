package engine

import (
	"testing"

	"tornado/internal/lamport"
	"tornado/internal/storage"
	"tornado/internal/stream"
	"tornado/internal/transport"
)

// BenchmarkProcessorCommit measures one main-loop commit in isolation: a
// vertex with four producers and four targets scatters, persists its version
// to the MVCC store and queues four update messages; the frame is then
// flushed and drained as its consumers would. allocs/op is the in-tree twin
// of the harness's engine.allocs_per_commit without the protocol around it.
func BenchmarkProcessorCommit(b *testing.B) {
	store := storage.NewMVCCStore()
	defer store.Close()
	e, err := New(Config{Processors: 1, DelayBound: 1 << 40, Kind: MainLoop, LoopID: storage.MainLoop,
		Store: store, Program: ssspProg{source: 1}, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Stop()
	p := e.cur().procs[0]
	v := p.ensure(1)
	for t := stream.VertexID(2); t <= 5; t++ {
		v.targets[t] = struct{}{}
		v.targetClock[t] = stream.Timestamp(t)
		v.state.(*ssspState).SrcLens[t+10] = int64(t)
	}
	var inbox []transport.Envelope
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.markDirty(v)
		v.activated = true // re-deliver the value to every target, as a seed or recovery commit does
		v.cons = v.appendConsumers(v.cons[:0])
		v.stamp = lamport.Stamp{Time: e.clock.Tick(), Owner: uint64(v.id)}
		p.commit(v)
		p.flushOut()
		inbox, _ = p.ep.RecvBatch(inbox)
		for _, env := range inbox {
			p.tk.Release(env.Payload.(msgUpdate).Token)
		}
		if i%64 == 63 { // the main loop's CompactEvery: keeps the vertex's version chain short
			if err := store.Compact(storage.MainLoop, v.lastCommit); err != nil {
				b.Fatal(err)
			}
		}
	}
}
