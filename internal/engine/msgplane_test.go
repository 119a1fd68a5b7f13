package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"tornado/internal/datasets"
	"tornado/internal/lamport"
	"tornado/internal/obs/trace"
	"tornado/internal/storage"
	"tornado/internal/stream"
	"tornado/internal/transport"
)

// TestWindowMatchesBoxedQueue is the message plane's model test: a seeded
// random interleaving of the six kinds to random destinations, sent through
// windows → flushOut → frames → the tag-stream replay, must give every
// destination the identical sequence the queue of boxed messages this plane
// replaced gave it — kept here as the oracle: one []{node, any} per window,
// a same-pair update merged in place at the earlier slot, everything handed
// over in order at a flush. A frontier advance flushes mid-window, and no
// frame exceeds MaxBatch.
func TestWindowMatchesBoxedQueue(t *testing.T) {
	const procs = 3
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		maxBatch := 1 + rng.Intn(9)
		e, err := New(Config{Processors: procs, DelayBound: 8, Kind: MainLoop, LoopID: storage.MainLoop,
			Store: storage.NewMemStore(), Program: ssspProg{source: 0}, Seed: seed, MaxBatch: maxBatch,
			// The transport's backstop tick seals buffers from its own
			// goroutine and can deliver a partial frame out of turn (the
			// transport dedups, it does not order); this test is about the
			// sender's order, so keep the tick out of it.
			FlushInterval: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		p := e.proc(0)

		type entry struct {
			node    int
			payload any
		}
		var (
			q         []entry
			slot      = map[[2]stream.VertexID]int{}
			want, got [procs][]any
		)
		oracleFlush := func() {
			for _, en := range q {
				want[en.node] = append(want[en.node], en.payload)
			}
			q = q[:0]
			clear(slot)
		}
		receive := func() {
			if w := p.takeLocal(); w != nil { // what run does with the own window
				got[0] = append(got[0], flatten(w)...)
				p.putLocal(w)
			}
			for node := 1; node < procs; node++ {
				ep := e.proc(node).ep
				for ep.Pending() > 0 {
					inbox, _ := ep.RecvBatch(nil)
					for _, env := range inbox {
						b := env.Payload.(*msgBatch)
						if n := len(b.Tags); n < 1 || n > maxBatch {
							t.Fatalf("seed %d: frame of %d messages; MaxBatch is %d", seed, n, maxBatch)
						}
						got[node] = append(got[node], flatten(b)...)
					}
				}
			}
		}

		notified := int64(0)
		for op := 0; op < 600; op++ {
			to := stream.VertexID(rng.Intn(12))
			node := int(to % procs)
			switch r := rng.Intn(100); {
			case r < 45: // a commit's update, coalescing along the producer's edge record
				from := stream.VertexID(procs * rng.Intn(3)) // hosted here
				m := msgUpdate{From: from, To: to, Iteration: int64(op), Token: p.tk.AcquireFloor(int64(op) + 1),
					Value: int64(op), HasValue: rng.Intn(4) != 0}
				sendUpd(p, m)
				if i, ok := slot[[2]stream.VertexID{from, to}]; ok {
					if old := q[i].payload.(msgUpdate); old.HasValue && !m.HasValue {
						m.Value, m.HasValue = old.Value, true
					}
					q[i].payload = m
				} else {
					slot[[2]stream.VertexID{from, to}] = len(q)
					q = append(q, entry{node, m})
				}
			case r < 57:
				m := msgPrepare{From: 3, To: to, Stamp: lamport.Stamp{Time: int64(op), Owner: 3}}
				p.window(to).addPrepare(m)
				q = append(q, entry{node, m})
			case r < 69:
				m := msgAck{From: 3, To: to, Iteration: int64(op)}
				p.window(to).addAck(m)
				q = append(q, entry{node, m})
			case r < 77: // a bounced input
				m := msgInput{Tuple: stream.Value(stream.Timestamp(op), to, int64(op)), JSeq: uint64(op), HasJSeq: true}
				p.window(routeVertex(m.Tuple)).addInput(m)
				q = append(q, entry{node, m})
			case r < 82:
				m := msgActivate{To: to, Token: int64(op)}
				p.window(to).addActivate(m)
				q = append(q, entry{node, m})
			case r < 85: // an update forwarded for another producer: never coalesced
				m := msgUpdate{From: 1, To: to, Iteration: int64(op)}
				p.window(to).addUpdate(m)
				q = append(q, entry{node, m})
			case r < 87:
				m := msgAdopt{To: to, State: int64(op), Iteration: int64(op)}
				p.window(to).addAdopt(m)
				q = append(q, entry{node, m})
			case r < 91: // the cap rises mid-window: everything queued so far leaves first
				notified++
				p.handleFrontier(msgFrontier{Notified: notified})
				oracleFlush()
			default: // the receive window ends
				p.flushOut()
				oracleFlush()
				receive()
			}
		}
		p.flushOut()
		oracleFlush()
		receive()
		for node := range want {
			if !reflect.DeepEqual(got[node], want[node]) {
				t.Fatalf("seed %d (MaxBatch %d): processor %d received %d messages, the boxed queue delivered %d; first difference at %d",
					seed, maxBatch, node, len(got[node]), len(want[node]), firstDiff(got[node], want[node]))
			}
		}
		e.Stop()
	}
}

func firstDiff(a, b []any) int {
	for i := range a {
		if i >= len(b) || !reflect.DeepEqual(a[i], b[i]) {
			return i
		}
	}
	return len(a)
}

// TestWireBatchRoundTrip: a frame whose members carry program values as `any`
// (int64, float64, a registered struct), tuples, stamps and a trace context
// crosses the in-memory wire — gob-encoded, CRC-framed, decoded — intact.
func TestWireBatchRoundTrip(t *testing.T) {
	mw := transport.NewMemWire()
	ln, err := mw.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	net := transport.NewNetwork(transport.Options{ResendAfter: 20 * time.Millisecond, MaxBatch: 64,
		Wire: &transport.WireConfig{Listener: ln, Dialer: mw.Dialer(), ForceLoop: true}})
	defer net.Close()
	a, b := net.Register(0), net.Register(1)

	sent := new(msgBatch)
	sent.addPrepare(msgPrepare{From: 1, To: 2, Stamp: lamport.Stamp{Time: 9, Owner: 1}})
	sent.addUpdate(msgUpdate{From: 1, To: 2, Iteration: 4, Token: 5, Value: int64(-7), HasValue: true})
	sent.addUpdate(msgUpdate{From: 3, To: 2, Iteration: 4, Token: 5, Value: 2.5, HasValue: true, Cum: true,
		Ctx: trace.Context{Trace: 11, Span: 12, Stamp: 13, Hops: 2, Sampled: true}})
	sent.addInput(msgInput{Tuple: stream.Value(3, 2, int64(8)), Token: 1, JSeq: 77, HasJSeq: true})
	sent.addAck(msgAck{From: 2, To: 1, Iteration: 6})
	sent.addUpdate(msgUpdate{From: 5, To: 2, Iteration: 1, Value: &sumState{Total: 3}, HasValue: true})
	sent.addActivate(msgActivate{To: 2, Token: 1})
	sent.addAdopt(msgAdopt{To: 2, State: &sumState{Total: 4}, Targets: []stream.VertexID{1, 3},
		TargetClock: map[stream.VertexID]stream.Timestamp{1: 5}, Iteration: 9, Token: 2})
	sent.addInput(msgInput{Tuple: stream.AddEdge(4, 2, 6)})
	a.Send(1, sent)
	a.Flush()

	env, ok := b.Recv()
	if !ok {
		t.Fatal("endpoint closed before the frame arrived")
	}
	got, ok := env.Payload.(*msgBatch)
	if !ok {
		t.Fatalf("payload decoded as %T; want *msgBatch", env.Payload)
	}
	if got == sent {
		t.Fatal("the frame never crossed the wire")
	}
	if !reflect.DeepEqual(flatten(got), flatten(sent)) || got.Traced != sent.Traced {
		t.Fatalf("frame changed on the wire:\n got %+v\nwant %+v", flatten(got), flatten(sent))
	}
	// The counter moves just after the frame lands in the inbox.
	waitUntil(t, waitFor, func() bool { return net.Stats.Delivered.Value() == int64(len(sent.Tags)) },
		"the decoded frame must still weigh its messages in Stats.Delivered")
}

// gatherLog records what a vertex gathered, in order.
type gatherLog struct {
	Iters []int64
}

type gatherLogProg struct{}

func init() { RegisterStateType(&gatherLog{}) }

func (gatherLogProg) Init(ctx Context)              { ctx.SetState(&gatherLog{}) }
func (gatherLogProg) OnInput(Context, stream.Tuple) {}
func (gatherLogProg) Scatter(Context)               {}
func (gatherLogProg) Gather(ctx Context, _ stream.VertexID, iter int64, _ any) {
	l := ctx.State().(*gatherLog)
	l.Iters = append(l.Iters, iter)
}

// TestHoldbackReleasedInIterationOrder: two updates from one producer held
// back at different iterations (the producer saw a newer frontier than this
// consumer) must be gathered oldest first when the cap rises. Released in map
// order, the newer could go first and the per-producer monotonic check would
// then drop the older — a lost delta for a non-cumulative program.
func TestHoldbackReleasedInIterationOrder(t *testing.T) {
	for trial := 0; trial < 64; trial++ { // map order is random per range
		_, p := newBatchProbe(t, gatherLogProg{})
		c := p.cap()
		for _, iter := range []int64{c, c + 3, c + 1} {
			p.handleUpdate(msgUpdate{From: 9, To: 2, Iteration: iter, Token: p.tk.AcquireFloor(iter + 1), Value: iter, HasValue: true})
		}
		if held := len(p.holdback); held != 3 {
			t.Fatalf("%d iterations held back; want 3", held)
		}
		if v := p.vertices[2]; len(v.state.(*gatherLog).Iters) != 0 {
			t.Fatalf("gathered %v before the cap rose", v.state.(*gatherLog).Iters)
		}
		p.handleFrontier(msgFrontier{Notified: p.notified + 8})
		if got := p.vertices[2].state.(*gatherLog).Iters; !reflect.DeepEqual(got, []int64{c, c + 1, c + 3}) {
			t.Fatalf("trial %d: gathered iterations %v; want all three, ascending: %v", trial, got, []int64{c, c + 1, c + 3})
		}
		if len(p.holdback) != 0 {
			t.Fatalf("%d iterations still held", len(p.holdback))
		}
	}
}

// TestMessagesReconcile: over a settled run every vertex message sent was
// either delivered by the transport — which counts messages, not frames — or
// short-circuited to the sender's own vertices. The master is paused, so no
// control message (frontier broadcast) muddies the transport's count.
func TestMessagesReconcile(t *testing.T) {
	e, err := New(Config{Processors: 4, DelayBound: 1 << 40, Kind: MainLoop, LoopID: storage.MainLoop,
		Store: storage.NewMemStore(), Program: ssspProg{source: 0}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	e.PauseMaster()
	e.Start()
	defer e.Stop()
	tuples := datasets.PowerLawGraph(300, 4, 11)
	e.IngestAll(tuples)
	if err := e.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	activated := []stream.VertexID{0, 1, 2, 3, 4, 5, 6}
	e.Activate(activated...)
	if err := e.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	sentOf := func(s StatsSnapshot) int64 {
		return s.UpdateMsgs - s.Coalesced + s.PrepareMsgs + s.AckMsgs + int64(len(tuples)) + int64(len(activated))
	}
	// A frame's Delivered count moves just after it lands in the inbox, so the
	// last one can trail the quiescence it caused by an instant.
	deadline := time.Now().Add(time.Second)
	s := e.StatsSnapshot()
	for s.TransportDelivered+s.LocalMsgs != sentOf(s) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		s = e.StatsSnapshot()
	}
	sent := sentOf(s)
	if s.InputMsgs != int64(len(tuples)) {
		t.Fatalf("InputMsgs = %d for %d tuples", s.InputMsgs, len(tuples))
	}
	if s.LocalMsgs == 0 || s.TransportDelivered == 0 {
		t.Fatalf("LocalMsgs = %d, TransportDelivered = %d; both paths must carry traffic at 4 processors", s.LocalMsgs, s.TransportDelivered)
	}
	if got := s.TransportDelivered + s.LocalMsgs; got != sent {
		t.Fatalf("sent %d vertex messages (updates %d − coalesced %d + prepares %d + acks %d + inputs %d + activations %d); transport delivered %d + local %d = %d",
			sent, s.UpdateMsgs, s.Coalesced, s.PrepareMsgs, s.AckMsgs, len(tuples), len(activated), s.TransportDelivered, s.LocalMsgs, got)
	}
	if s.TransportPayloads != s.TransportDelivered {
		t.Fatalf("TransportPayloads = %d, TransportDelivered = %d on a lossless plane", s.TransportPayloads, s.TransportDelivered)
	}
	if ppf := float64(s.TransportPayloads) / float64(s.TransportSent); ppf <= 1 {
		t.Fatalf("%.2f messages per frame; frames must weigh their messages", ppf)
	}
	checkSSSP(t, e, tuples)
}

// newHopProbe returns a step function that moves n vertex messages (prepares,
// acks and uncoalesced updates in rotation) from processor 0 to a vertex of
// processor 1 — or, local, to one of its own — through the whole plane: queue,
// flushOut, frame, transport, inbox, tag-stream replay, handlers, and the
// acks the prepares provoke back again. It returns how many messages one step
// delivers. The processors never run; the probe is their loop.
func newHopProbe(tb testing.TB, local bool, n int) (step func(), delivered int) {
	e, err := New(Config{Processors: 2, DelayBound: 1 << 40, Kind: MainLoop, LoopID: storage.MainLoop,
		Store: storage.NewMemStore(), Program: countProg{}, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(e.Stop)
	const from = stream.VertexID(0) // processor 0's
	to := stream.VertexID(1)        // processor 1's
	if local {
		to = 2
	}
	p0, p1 := e.proc(0), e.proc(1)
	var inbox0, inbox1 []transport.Envelope
	drain := func(p *processor, inbox []transport.Envelope) []transport.Envelope {
		for {
			if w := p.takeLocal(); w != nil {
				p.dispatchBatch(w, transport.NodeID(p.idx), 0)
				p.putLocal(w)
			}
			inbox, _ = p.ep.PollBatch(inbox)
			for i := range inbox {
				p.dispatch(inbox[i])
			}
			p.flushOut()
			if len(inbox) == 0 && len(p.out.win[p.idx].Tags) == 0 {
				return inbox
			}
		}
	}
	return func() {
		w := p0.window(to)
		for i := 0; i < n; i++ {
			switch i % 3 {
			case 0:
				w.addPrepare(msgPrepare{From: from, To: to, Stamp: lamport.Stamp{Time: 1, Owner: uint64(from)}})
			case 1:
				w.addAck(msgAck{From: from, To: to, Iteration: 1})
			default:
				w.addUpdate(msgUpdate{From: from, To: to, Iteration: 1, Token: p0.tk.AcquireFloor(2), Value: int64(7), HasValue: true})
			}
		}
		p0.flushOut()
		inbox1 = drain(p1, inbox1)
		inbox0 = drain(p0, inbox0)
	}, n + (n+2)/3
}

// BenchmarkMessageHop measures the message plane alone: ns and allocations per
// delivered vertex message, processor to processor and processor to itself,
// at 1, 8 and 64 messages per flush (see newHopProbe).
func BenchmarkMessageHop(b *testing.B) {
	for _, path := range []string{"proc-proc", "proc-self"} {
		for _, n := range []int{1, 8, 64} {
			b.Run(fmt.Sprintf("%s/%d", path, n), func(b *testing.B) {
				step, delivered := newHopProbe(b, path == "proc-self", n)
				for i := 0; i < 64; i++ {
					step()
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					step()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*delivered), "ns/msg")
			})
		}
	}
}
