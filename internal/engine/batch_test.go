package engine

import (
	"math"
	"testing"
	"time"

	"tornado/internal/storage"
	"tornado/internal/stream"
)

// countState counts value tuples applied to one vertex.
type countState struct {
	N int64
}

// countProg is a pure input-counting program: no targets, no emissions. Every
// KindValue tuple must be counted exactly once, which makes it a sharp probe
// for duplicate or lost inputs across crash recovery.
type countProg struct{}

func init() {
	RegisterStateType(&countState{})
	RegisterStateType(&sumState{})
}

func (countProg) Init(ctx Context)                            { ctx.SetState(&countState{}) }
func (countProg) Gather(Context, stream.VertexID, int64, any) {}
func (countProg) Scatter(Context)                             {}
func (countProg) OnInput(ctx Context, t stream.Tuple) {
	if t.Kind == stream.KindValue {
		ctx.State().(*countState).N++
	}
}

// sumState/sumProg exercise the Combiner extension: values accumulate, so
// coalescing must sum rather than keep the last writer.
type sumState struct {
	Total int64
}

type sumProg struct{}

func (sumProg) Init(ctx Context)                            { ctx.SetState(&sumState{}) }
func (sumProg) OnInput(Context, stream.Tuple)               {}
func (sumProg) Gather(Context, stream.VertexID, int64, any) {}
func (sumProg) Scatter(Context)                             {}
func (sumProg) Combine(_ stream.VertexID, old, new any) any { return old.(int64) + new.(int64) }

// flatten returns b's messages as the sequence a queue of boxed messages would
// hold: the tag stream replayed.
func flatten(b *msgBatch) []any {
	var out []any
	var pos [numKinds]int
	for _, k := range b.Tags {
		i := pos[k]
		pos[k]++
		switch k {
		case kindInput:
			out = append(out, b.Inputs[i])
		case kindActivate:
			out = append(out, b.Activates[i])
		case kindUpdate:
			out = append(out, b.Updates[i])
		case kindPrepare:
			out = append(out, b.Prepares[i])
		case kindAck:
			out = append(out, b.Acks[i])
		case kindAdopt:
			out = append(out, b.Adopts[i])
		}
	}
	return out
}

// queued returns what p has queued for processor node in the current window.
func queued(p *processor, node int) []any { return flatten(p.out.win[node]) }

// dropLocal discards p's window for its own vertices (a probe's processors
// never run, so nothing would dispatch it).
func dropLocal(p *processor) {
	if w := p.takeLocal(); w != nil {
		p.putLocal(w)
	}
}

// newBatchProbe builds an engine whose processors exist but never run, so a
// test can queue messages directly and inspect the window.
func newBatchProbe(t *testing.T, prog Program) (*Engine, *processor) {
	t.Helper()
	e, err := New(Config{
		Processors: 1,
		DelayBound: 8,
		Kind:       MainLoop,
		LoopID:     storage.MainLoop,
		Store:      storage.NewMemStore(),
		Program:    prog,
		Seed:       7,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Stop)
	return e, e.proc(0)
}

// sendUpd queues an update the way commit does: along the producer's edge
// record for the consumer, which holds the coalescing slot.
func sendUpd(p *processor, m msgUpdate) {
	v := p.vertices[m.From]
	if v == nil {
		v = p.host(newVertex(m.From, 0))
	}
	p.sendUpdate(v.edge(m.To), m)
}

// TestCoalesceQueueMergesUpdates drives the window directly: consecutive
// same-pair updates must merge in place (newest iteration wins, last-writer
// value, superseded token released), while other pairs and message kinds
// keep their own slots and relative order.
func TestCoalesceQueueMergesUpdates(t *testing.T) {
	e, p := newBatchProbe(t, ssspProg{source: 0})

	tok1 := p.tk.AcquireFloor(1)
	sendUpd(p, msgUpdate{From: 1, To: 2, Iteration: 1, Token: tok1, Value: int64(5), HasValue: true})
	tok2 := p.tk.AcquireFloor(2)
	sendUpd(p, msgUpdate{From: 1, To: 2, Iteration: 2, Token: tok2, Value: int64(3), HasValue: true})

	if q := queued(p, 0); len(q) != 1 {
		t.Fatalf("window has %d entries after same-pair updates; want 1", len(q))
	}
	m := queued(p, 0)[0].(msgUpdate)
	if m.Iteration != 2 || !m.HasValue || m.Value.(int64) != 3 {
		t.Fatalf("merged update = %+v; want iteration 2, last-writer value 3", m)
	}
	if n := p.tk.TokenCount(); n != 1 {
		t.Fatalf("TokenCount = %d after coalescing; want 1 (superseded token released)", n)
	}
	if c := e.stats.Coalesced.Value(); c != 1 {
		t.Fatalf("Coalesced = %d; want 1", c)
	}

	// A valueless newer update carries the older value forward.
	tok3 := p.tk.AcquireFloor(3)
	sendUpd(p, msgUpdate{From: 1, To: 2, Iteration: 3, Token: tok3})
	m = queued(p, 0)[0].(msgUpdate)
	if n := len(queued(p, 0)); n != 1 || m.Iteration != 3 || !m.HasValue || m.Value.(int64) != 3 {
		t.Fatalf("valueless merge = %+v (window len %d); want iteration 3 carrying value 3", m, n)
	}

	// A different producer pair gets its own slot; a non-update message is
	// never coalesced; and the original pair still merges into its old slot
	// without disturbing either.
	tok4 := p.tk.AcquireFloor(3)
	sendUpd(p, msgUpdate{From: 9, To: 2, Iteration: 3, Token: tok4, Value: int64(1), HasValue: true})
	p.window(2).addPrepare(msgPrepare{From: 1, To: 2})
	tok5 := p.tk.AcquireFloor(4)
	sendUpd(p, msgUpdate{From: 1, To: 2, Iteration: 4, Token: tok5, Value: int64(8), HasValue: true})
	q := queued(p, 0)
	if len(q) != 3 {
		t.Fatalf("window has %d entries; want 3 (merged update, other pair, prepare)", len(q))
	}
	m = q[0].(msgUpdate)
	if m.Iteration != 4 || m.Value.(int64) != 8 {
		t.Fatalf("slot 0 after third merge = %+v; want iteration 4 value 8", m)
	}
	if _, ok := q[2].(msgPrepare); !ok {
		t.Fatalf("slot 2 is %T; prepares must keep their queue position", q[2])
	}

	// flushOut retires every coalescing slot — the messages for this
	// processor's own vertices stay queued for its run loop — so the pair's
	// next update takes a slot of its own, behind them.
	p.flushOut()
	sendUpd(p, msgUpdate{From: 1, To: 2, Iteration: 5, Token: p.tk.AcquireFloor(5)})
	q = queued(p, 0)
	if len(q) != 4 || q[0].(msgUpdate).Iteration != 4 || q[3].(msgUpdate).Iteration != 5 {
		t.Fatalf("update after flushOut: window = %+v; want it queued fourth, uncoalesced", q)
	}
	// Detaching the window (what run does before dispatching it) opens an
	// empty one.
	dropLocal(p)
	sendUpd(p, msgUpdate{From: 1, To: 2, Iteration: 6, Token: p.tk.AcquireFloor(6)})
	if q = queued(p, 0); len(q) != 1 || q[0].(msgUpdate).Iteration != 6 {
		t.Fatalf("update after the window was taken: window = %+v; want the one new update", q)
	}
}

// TestCoalesceCombiner: a program implementing Combiner replaces last-writer
// with its own merge function.
func TestCoalesceCombiner(t *testing.T) {
	_, p := newBatchProbe(t, sumProg{})
	if p.combiner == nil {
		t.Fatal("combiner not detected on a Combiner program")
	}
	tok1 := p.tk.AcquireFloor(1)
	sendUpd(p, msgUpdate{From: 1, To: 2, Iteration: 1, Token: tok1, Value: int64(5), HasValue: true})
	tok2 := p.tk.AcquireFloor(2)
	sendUpd(p, msgUpdate{From: 1, To: 2, Iteration: 2, Token: tok2, Value: int64(3), HasValue: true})
	m := queued(p, 0)[0].(msgUpdate)
	if m.Value.(int64) != 8 {
		t.Fatalf("combined value = %v; want 5+3=8", m.Value)
	}
}

// TestCrashMidFlushExactInputCounts crashes a processor while batched frames
// are in flight and asserts exactly-once input application after supervised
// recovery: the journal must replay everything the crash destroyed (buffered
// frames included) and nothing twice (runs under -race via make chaos).
func TestCrashMidFlushExactInputCounts(t *testing.T) {
	const (
		vertices = 50
		total    = 2000
	)
	e, err := New(Config{
		Processors:        3,
		DelayBound:        8,
		Kind:              MainLoop,
		LoopID:            storage.MainLoop,
		Store:             storage.NewMemStore(),
		Program:           countProg{},
		Seed:              31,
		HeartbeatInterval: 5 * time.Millisecond,
		ResendAfter:       10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	defer e.Stop()

	tuples := make([]stream.Tuple, total)
	for i := range tuples {
		tuples[i] = stream.Value(stream.Timestamp(i), stream.VertexID(i%vertices), int64(1))
	}

	// First wave lands, then the crash hits while the second wave's frames
	// are still buffering and flushing. The final chunk is held back and
	// ingested only after the crash: its frames land on the dead endpoint, so
	// the run cannot quiesce without an actual supervised recovery — on a
	// fast machine the concurrent waves alone can drain before the crash
	// bites, which used to make this test flaky.
	const tail = 100
	e.IngestAll(tuples[:total/4])
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := total / 4; i < total-tail; i += 100 {
			end := i + 100
			if end > total-tail {
				end = total - tail
			}
			e.IngestAll(tuples[i:end])
		}
	}()
	time.Sleep(2 * time.Millisecond)
	e.CrashProcessor(1)
	<-done
	e.IngestAll(tuples[total-tail:])

	if err := e.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	var sum int64
	err = e.ScanStates(math.MaxInt64, func(_ stream.VertexID, _ int64, state any) error {
		sum += state.(*countState).N
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum != total {
		t.Fatalf("counted %d inputs after crash recovery; want exactly %d", sum, total)
	}
	if s := e.StatsSnapshot(); s.Crashes < 1 || s.Recoveries < 1 {
		t.Fatalf("Crashes = %d, Recoveries = %d; the crash was not exercised", s.Crashes, s.Recoveries)
	}
	checkQuiescent(t, e)
}
