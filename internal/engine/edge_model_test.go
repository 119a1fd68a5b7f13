package engine

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"tornado/internal/lamport"
	"tornado/internal/storage"
	"tornado/internal/stream"
)

// edgeProg emits to every removed target and to the even-numbered current
// ones, so each commit sends both valued and valueless COMMIT messages.
type edgeProg struct{}

func (edgeProg) Init(ctx Context)                            { ctx.SetState(int64(0)) }
func (edgeProg) OnInput(Context, stream.Tuple)               {}
func (edgeProg) Gather(Context, stream.VertexID, int64, any) {}
func (edgeProg) Scatter(ctx Context) {
	for _, t := range ctx.RemovedTargets() {
		ctx.Emit(t, int64(-1))
	}
	for _, t := range ctx.Targets() {
		if t%2 == 0 {
			ctx.Emit(t, int64(t))
		}
	}
}

// edgeModel is one vertex's protocol bookkeeping the way the engine kept it
// before edge records: one map per question.
type edgeModel struct {
	targets, added, removed, waiting, prep map[stream.VertexID]struct{}
	clock                                  map[stream.VertexID]stream.Timestamp
	seen                                   map[stream.VertexID]int64
	dirty, preparing                       bool
	held                                   []stream.Tuple
	commits                                int
	sent                                   map[stream.VertexID]bool // last commit's updates: consumer -> carries a value
}

type idSet = map[stream.VertexID]struct{}

func sortedKeys[V any](m map[stream.VertexID]V) []stream.VertexID {
	ids := make([]stream.VertexID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

func (m *edgeModel) input(t stream.Tuple) {
	if m.preparing {
		m.held = append(m.held, t)
		return
	}
	if last, ok := m.clock[t.Dst]; ok && t.Time < last {
		return // stale: a newer operation on this edge already applied
	}
	m.clock[t.Dst] = t.Time
	_, cur := m.targets[t.Dst]
	switch {
	case t.Kind == stream.KindAddEdge && !cur:
		m.targets[t.Dst], m.added[t.Dst] = struct{}{}, struct{}{}
		delete(m.removed, t.Dst)
	case t.Kind == stream.KindRemoveEdge && cur:
		m.removed[t.Dst] = struct{}{}
		delete(m.targets, t.Dst)
		delete(m.added, t.Dst)
	}
	m.dirty = true
}

func (m *edgeModel) maybeStart() {
	if m.preparing || !m.dirty || len(m.prep) > 0 {
		return
	}
	m.preparing = true
	for t := range m.targets {
		m.waiting[t] = struct{}{}
	}
	for t := range m.removed {
		m.waiting[t] = struct{}{}
	}
	if len(m.waiting) == 0 {
		m.commit()
	}
}

func (m *edgeModel) commit() {
	m.commits++
	m.sent = map[stream.VertexID]bool{}
	for t := range m.removed {
		m.sent[t] = true
	}
	for t := range m.targets {
		m.sent[t] = t%2 == 0
	}
	clear(m.added)
	clear(m.removed)
	m.dirty, m.preparing = false, false
	held := m.held
	m.held = nil
	for _, t := range held {
		m.input(t)
	}
	m.maybeStart()
}

// TestEdgeRecordsAgainstMapModel drives one vertex through random inputs,
// prepares, acks and updates — duplicates, stale edge operations and stale
// updates included — on a processor that is never started, and after every
// step compares the edge records with the map model: set contents and order
// of the three target views, the waiting and preparing sets with their
// counters, the stale-clock and stale-update gates, the messages each commit
// queued, and the persisted bytes against AppendBlob of the model's maps.
func TestEdgeRecordsAgainstMapModel(t *testing.T) {
	const self, ids = stream.VertexID(1000), 12
	for trial := 0; trial < 30; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		store := storage.NewMemStore()
		e, err := New(Config{Processors: 1, DelayBound: 1 << 40, Kind: MainLoop, LoopID: storage.MainLoop,
			Store: store, Program: edgeProg{}, Seed: int64(trial)})
		if err != nil {
			t.Fatal(err)
		}
		p := e.proc(0)
		v := p.ensure(self)
		m := &edgeModel{targets: idSet{}, added: idSet{}, removed: idSet{}, waiting: idSet{}, prep: idSet{},
			clock: map[stream.VertexID]stream.Timestamp{}, seen: map[stream.VertexID]int64{}}

		for op := 0; op < 400; op++ {
			// Mostly the peer the protocol is waiting on, so updates complete;
			// otherwise anyone: duplicates and unsolicited messages.
			peer := stream.VertexID(rng.Intn(ids))
			kind := rng.Intn(10)
			if owed := sortedKeys(m.waiting); len(owed) > 0 && rng.Intn(4) > 0 {
				peer, kind = owed[rng.Intn(len(owed))], 9
			} else if prep := sortedKeys(m.prep); len(prep) > 0 && rng.Intn(3) > 0 {
				peer, kind = prep[rng.Intn(len(prep))], 4
			}
			switch kind {
			case 0, 1, 2: // edge input; old event times make some of them stale
				tup := stream.AddEdge(stream.Timestamp(rng.Intn(op+1)), self, peer)
				if rng.Intn(3) == 0 {
					tup.Kind = stream.KindRemoveEdge
				}
				p.handleInput(msgInput{Tuple: tup, Token: p.tk.AcquireFloor(0)})
				m.input(tup)
			case 3: // PREPARE from a producer (possibly a duplicate)
				p.handlePrepare(msgPrepare{From: peer, To: self, Stamp: lamport.Stamp{Time: e.clock.Tick(), Owner: uint64(peer)}})
				m.prep[peer] = struct{}{}
			case 4, 5, 6: // COMMIT from a producer, with or without a value, possibly stale
				u := msgUpdate{From: peer, To: self, Iteration: int64(rng.Intn(op + 1)), HasValue: rng.Intn(2) == 0, Value: int64(op)}
				u.Token = p.tk.AcquireFloor(u.Iteration + 1)
				p.handleUpdate(u)
				delete(m.prep, peer)
				if last, ok := m.seen[peer]; u.HasValue && (!ok || u.Iteration > last) {
					m.seen[peer] = u.Iteration
					m.dirty = true
				}
			default: // ACK from a consumer: owed, duplicate or never asked for
				p.handleAck(msgAck{From: peer, To: self, Iteration: int64(rng.Intn(op + 1))})
				if _, owed := m.waiting[peer]; m.preparing && owed {
					if delete(m.waiting, peer); len(m.waiting) == 0 {
						m.commit()
					}
				}
			}
			m.maybeStart()

			// The window's queue: this step's commit (if any) must have sent one
			// update per consumer, valued exactly where the program emitted.
			sent := map[stream.VertexID]bool{}
			for _, u := range p.out.win[0].Updates {
				if _, dup := sent[u.To]; dup {
					t.Fatalf("trial %d op %d: two updates to %d in one commit", trial, op, u.To)
				}
				sent[u.To] = u.HasValue
				p.tk.Release(u.Token)
			}
			p.flushOut()
			dropLocal(p) // the processor is the only one and never runs
			want := m.sent
			m.sent = nil
			if len(sent) != len(want) {
				t.Fatalf("trial %d op %d: commit sent %v; model wants %v", trial, op, sent, want)
			}
			for to, valued := range want {
				if got, ok := sent[to]; !ok || got != valued {
					t.Fatalf("trial %d op %d: commit sent %v; model wants %v", trial, op, sent, want)
				}
			}

			ctx := &vertexContext{p: p, v: v}
			for _, c := range []struct {
				name string
				got  []stream.VertexID
				want idSet
			}{{"Targets", ctx.Targets(), m.targets}, {"AddedTargets", ctx.AddedTargets(), m.added}, {"RemovedTargets", ctx.RemovedTargets(), m.removed}} {
				if !slices.Equal(c.got, sortedKeys(c.want)) {
					t.Fatalf("trial %d op %d: %s = %v; model wants %v", trial, op, c.name, c.got, sortedKeys(c.want))
				}
			}
			var waiting, preparing, clocked []stream.VertexID
			for i, o := range v.out {
				if i > 0 && v.out[i-1].To >= o.To {
					t.Fatalf("trial %d op %d: out not strictly ascending: %+v", trial, op, v.out)
				}
				if o.Flags&edgeOwesAck != 0 {
					waiting = append(waiting, o.To)
				}
				if o.Flags&edgeClocked != 0 {
					clocked = append(clocked, o.To)
					if o.Clock != m.clock[o.To] {
						t.Fatalf("trial %d op %d: clock of %d = %d; model has %d", trial, op, o.To, o.Clock, m.clock[o.To])
					}
				}
				if o.Flags&edgeEmitted != 0 || o.Flags == 0 {
					t.Fatalf("trial %d op %d: record %+v survived the commit's close-out", trial, op, o)
				}
			}
			for i, in := range v.in {
				if i > 0 && v.in[i-1].From >= in.From {
					t.Fatalf("trial %d op %d: in not strictly ascending: %+v", trial, op, v.in)
				}
				if in.Preparing {
					preparing = append(preparing, in.From)
				}
				if last, ok := m.seen[in.From]; (ok && in.Seen != last) || (!ok && in.Seen != -1) {
					t.Fatalf("trial %d op %d: seen[%d] = %d; model has %d (%v)", trial, op, in.From, in.Seen, last, ok)
				}
			}
			if !slices.Equal(waiting, sortedKeys(m.waiting)) || v.nwaiting != len(m.waiting) ||
				e.pendingPrepares.Load() != int64(len(m.waiting)) {
				t.Fatalf("trial %d op %d: waiting %v (nwaiting %d, pendingPrepares %d); model wants %v",
					trial, op, waiting, v.nwaiting, e.pendingPrepares.Load(), sortedKeys(m.waiting))
			}
			if !slices.Equal(preparing, sortedKeys(m.prep)) || v.npreparing != len(m.prep) {
				t.Fatalf("trial %d op %d: preparing %v (npreparing %d); model wants %v", trial, op, preparing, v.npreparing, sortedKeys(m.prep))
			}
			if !slices.Equal(clocked, sortedKeys(m.clock)) {
				t.Fatalf("trial %d op %d: clocked %v; model wants %v", trial, op, clocked, sortedKeys(m.clock))
			}
			if v.preparing() != m.preparing || v.dirty != m.dirty || int(e.stats.Commits.Value()) != m.commits {
				t.Fatalf("trial %d op %d: preparing %v dirty %v commits %d; model wants %v %v %d",
					trial, op, v.preparing(), v.dirty, e.stats.Commits.Value(), m.preparing, m.dirty, m.commits)
			}

			// Stored bytes are what AppendBlob writes for the model's maps.
			if m.commits > 0 && !m.dirty {
				got, _, err := store.Latest(storage.MainLoop, self, math.MaxInt64)
				if err != nil {
					t.Fatal(err)
				}
				blob := VertexBlob{State: v.state, Targets: sortedKeys(m.targets), TargetClock: m.clock}
				want, err := StateCodec{}.AppendBlob(nil, &blob)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("trial %d op %d: stored blob %x; AppendBlob of the model gives %x", trial, op, got, want)
				}
			}
		}
		// What is left is the vertex's own dirty token if it is mid-update,
		// and the tokens of the inputs held until that update commits.
		wantTokens := int64(len(m.held))
		if m.dirty {
			wantTokens++
		}
		if n := p.tk.TokenCount(); n != wantTokens {
			t.Fatalf("trial %d: %d tokens outstanding; want %d", trial, n, wantTokens)
		}
		if m.commits < 10 || e.stats.PrepareMsgs.Value() == 0 || e.stats.AckMsgs.Value() == 0 {
			t.Fatalf("trial %d: %d commits, %d prepares, %d acks: the protocol was not exercised",
				trial, m.commits, e.stats.PrepareMsgs.Value(), e.stats.AckMsgs.Value())
		}
		e.Stop()
	}
}

// TestVertexBlobMatchesAppendBlob: the commit path's encoder and the blob
// shape agree byte for byte, gob fallback included.
func TestVertexBlobMatchesAppendBlob(t *testing.T) {
	type unregistered struct{ N int } // gob refuses it: both encoders must fail
	for _, state := range []any{nil, &countState{N: 3}, int64(7), "gob fallback", unregistered{N: 1}} {
		v := newVertex(1, 1)
		v.state = state
		v.setTargets([]stream.VertexID{9, 2, 1 << 40}, map[stream.VertexID]stream.Timestamp{2: -5, 7: 11})
		v.pending, v.hasPending = 0.25, true
		got, err := StateCodec{}.appendVertex(nil, v)
		blob := v.blob()
		want, werr := StateCodec{}.AppendBlob(nil, &blob)
		if (err == nil) != (werr == nil) {
			t.Fatalf("state %T: appendVertex fails with %v, AppendBlob with %v", state, err, werr)
		}
		if err == nil && !bytes.Equal(got, want) {
			// gob writes maps in iteration order: its blobs compare decoded.
			g, gerr := StateCodec{}.DecodeBlob(got)
			if got[0] == blobFormat || gerr != nil || !reflect.DeepEqual(g, blob) {
				t.Fatalf("state %T: appendVertex = %x (%+v, %v); AppendBlob = %x", state, got, g, gerr, want)
			}
		}
		if want := []stream.VertexID{2, 9, 1 << 40}; !slices.Equal(blob.Targets, want) {
			t.Fatalf("blob targets %v; want %v", blob.Targets, want)
		}
	}
}
