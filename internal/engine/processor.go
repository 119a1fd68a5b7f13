package engine

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"tornado/internal/delta"
	"tornado/internal/lamport"
	"tornado/internal/obs/trace"
	"tornado/internal/storage"
	"tornado/internal/stream"
	"tornado/internal/transport"
)

// processor owns a partition of the vertices and runs the session layer: the
// three-phase update protocol, delay bounding and input application. All
// vertex state is confined to the processor goroutine; the only shared
// structures are the tracker (tokens), the store, and a small mutex-guarded
// share used by fork scans. Its writes to shared accounting — tracker, input
// journal, ingest gate, counters — collect in a private ledger published at
// the end of each receive window and every publishEvery messages (publish).
type processor struct {
	idx int
	eng *Engine
	ep  *transport.Endpoint

	// tk and snap are this incarnation's tracker and snapshot source,
	// captured at construction. Processors never read them through the
	// engine: a checkpoint restart replaces them under the engine's
	// generation lock while waiting for the old processors to drain, and that
	// wait must not depend on the lock. Routing reads the plan (Engine.owner).
	tk   *Tracker
	snap *SnapshotSource
	// shells says new vertices that only answer a PREPARE or absorb a
	// valueless COMMIT are hosted unloaded (touch): the engine bootstraps
	// from snap in value mode. No other processor holds an unloaded vertex.
	shells bool

	// sp is the engine's span tracer (nil-safe), cached here with the
	// numeric loop ID: message contexts are checked with one bool load
	// before any call touches it, and a protocol transition costs one atomic
	// load while no vertex is watched.
	sp    *trace.Tracer
	loopU uint64

	vertices map[stream.VertexID]*vertex
	notified int64 // highest iteration the master announced terminated
	// clock stamps this processor's prepares (Tick in maybeStart) and
	// witnesses the stamps of those it receives (handlePrepare): Lamport's
	// rule needs a clock per process, and the (time, owner) total order is
	// all the protocol's deadlock freedom rests on.
	clock lamport.Clock
	// ledger collects the receive window's writes to shared accounting;
	// sincePublish counts the messages dispatched since it was last published.
	ledger       windowLedger
	sincePublish int
	// holdback keeps, per commit iteration, the updates the delay bound is
	// withholding; they are released in ascending iteration order (heldIters).
	holdback map[int64][]msgUpdate
	iterBuf  []int64   // heldIters scratch
	capQ     []*vertex // vertices (capBlocked set) to retry when the cap rises

	// The message plane (DESIGN §8). Outgoing vertex messages are appended,
	// by value, to out's window for the owning processor during one receive
	// window; flushOut ships the windows as frames at its end. A producer's
	// edge record locates its pending msgUpdate for the consumer (outEdge.qPos
	// into the window's Updates, valid while outEdge.qEpoch is the window's
	// epoch) so a newer update coalesces into it in place — in-place merging
	// is what keeps the per-destination order intact for every other message
	// kind. Epochs come from one counter, so handing a window a fresh one
	// retires exactly its slots. The window for this processor itself never
	// reaches the transport: run detaches it (swapping in spare) and
	// dispatches it as the next window. recycle says a dispatched frame may
	// go back to framePool.
	out      *outbox
	spare    *msgBatch
	epochSeq uint64
	recycle  bool
	combiner Combiner // non-nil when the program customizes coalescing

	// Delta mode (cfg.Delta != nil): gathered messages fold into per-vertex
	// pending slots, and actQ orders vertices with significant pendings by
	// their parked token's iteration, then by priority. An entry fires once
	// the frontier reaches its iteration (drainActQ), so a vertex commits
	// once per round, not once per delta; its depth (deltaDepth, read by the
	// scrape-time gauge) counts activations waiting for the frontier.
	// deltaBase caches dp.Threshold(), the significance bar a pending must
	// clear to be scheduled.
	dp         delta.Program
	deltaBase  float64
	actQ       *delta.Queue
	deltaDepth atomic.Int64

	paused    atomic.Bool // read once per message; the lock is only for parking
	pauseMu   sync.Mutex
	pauseCond *sync.Cond
	parked    bool // under pauseMu: the goroutine waits in maybePause

	// maxCommit is the highest iteration this partition has committed;
	// written only by the processor goroutine, read by the per-partition
	// frontier-lag gauge at scrape time.
	maxCommit atomic.Int64

	// share exposes commit/dirty information to fork scans (Section 5.2) and
	// the elastic planner: one slot per hosted vertex, indexed by vertex.slot,
	// taken by host. A vertex never leaves its processor, so a slot is never
	// given back.
	shareMu sync.Mutex
	share   []shareSlot

	// Lifetime load counters read by PartitionLoads (elastic planner),
	// advanced at each publish.
	commitCount atomic.Int64
	updateCount atomic.Int64

	// Callback scratch, reused so a steady-state commit allocates nothing for
	// them: the encoded blob (every Store.Put copies), the emissions of the
	// Scatter in progress, and the three target views a Context hands out.
	encBuf  []byte
	emitBuf []emission
	viewBuf [3][]stream.VertexID
}

// windowLedger is one receive window's writes to shared accounting, held by
// the processor until publish: tracker acquisitions, commit records and
// releases, input-journal commit stamps, ingest-gate credits, the change in
// PREPAREs awaiting their ACK, and the counters.
type windowLedger struct {
	tokens           TokenLedger
	stamps           []journalStamp
	credits          int
	prepares         int64
	stats            statCounts
	commits, updates int64 // this processor's commitCount / updateCount
}

// publishEvery bounds the messages a receive window dispatches between two
// publishes. A window lasts as long as dispatching everything the inbox held,
// which grows with load, and publishing only at its end holds back every
// release, gate credit and journal stamp by the whole window: the frontier
// (and with it the delay bound's cap), admission and the commit watermark all
// lag behind the work done. Every 64 messages keeps that lag short at one
// tracker lock hold per 64 messages at most (EXPERIMENTS "Window ledger").
const publishEvery = 64

// shareSlot is one hosted vertex's entry in the processor share.
type shareSlot struct {
	id         stream.VertexID
	lastCommit int64 // -1 until the first commit
	dirty      bool
}

func newProcessor(idx, slots int, eng *Engine, ep *transport.Endpoint, tk *Tracker) *processor {
	p := &processor{
		idx:      idx,
		eng:      eng,
		ep:       ep,
		tk:       tk,
		snap:     eng.cfg.snapshot,
		loopU:    uint64(eng.cfg.LoopID),
		sp:       eng.spans,
		vertices: make(map[stream.VertexID]*vertex),
		notified: eng.cfg.startIteration - 1,
		holdback: make(map[int64][]msgUpdate, 16),
		out:      newOutbox(slots),
		spare:    new(msgBatch),
		recycle:  eng.cfg.Wire == nil,
	}
	for _, w := range p.out.win {
		w.epoch = p.nextEpoch() // from 1: 0 is "no slot" in a fresh edge record
	}
	p.combiner, _ = eng.cfg.Program.(Combiner)
	if eng.cfg.Delta != nil {
		p.dp = eng.cfg.Delta
		p.deltaBase = p.dp.Threshold()
		p.actQ = delta.NewQueue()
	}
	p.shells = p.snap != nil && p.dp == nil
	p.pauseCond = sync.NewCond(&p.pauseMu)
	return p
}

// cap returns the highest iteration updates may currently commit in:
// lastTerminated + B (Section 4.4).
func (p *processor) cap() int64 {
	return p.notified + p.eng.cfg.DelayBound
}

func (p *processor) nextEpoch() uint64 {
	p.epochSeq++
	return p.epochSeq
}

// run is the processor's loop: drain the whole inbox under one lock, dispatch
// every message, then flush the windows before blocking again. The flush
// window is therefore exactly one receive window — under load the inbox
// refills while the previous window is processed, so windows (and with them
// frame sizes and coalescing opportunities) grow with saturation, while an
// idle processor flushes immediately and adds no latency. Messages for this
// processor's own vertices are the next window's first: they skip the
// transport, and the inbox is polled instead of waited on while there are any.
func (p *processor) run() {
	defer p.publish() // an exit mid-window publishes what the window did
	var inbox []transport.Envelope
	for {
		p.maybePause()
		local := p.takeLocal()
		var ok bool
		if local == nil {
			inbox, ok = p.ep.RecvBatch(inbox)
		} else {
			inbox, ok = p.ep.PollBatch(inbox)
		}
		if !ok {
			return
		}
		if local != nil {
			p.dispatchBatch(local, transport.NodeID(p.idx), 0)
			p.putLocal(local)
		}
		for i := range inbox {
			p.maybePause()
			if !p.dispatch(inbox[i]) {
				return
			}
		}
		// Delta mode: fire the activations the frontier has reached, in
		// priority order, before the flush, so they commit (and coalesce)
		// within the same frame window. A frontier advance in this window
		// is what releases the next round's.
		p.drainActQ()
		p.flushOut()
	}
}

// takeLocal detaches the window of messages addressed to this processor's own
// vertices (nil when empty), leaving an empty one in its place.
func (p *processor) takeLocal() *msgBatch {
	w := p.out.win[p.idx]
	if len(w.Tags) == 0 {
		return nil
	}
	p.spare.epoch = p.nextEpoch()
	p.out.win[p.idx], p.spare = p.spare, nil
	p.ledger.stats.LocalMsgs += int64(len(w.Tags))
	return w
}

// putLocal takes back a window takeLocal detached, once it is dispatched.
func (p *processor) putLocal(w *msgBatch) {
	w.reset()
	p.spare = w
}

// dispatch routes one transport payload — a frame of vertex messages or a
// control message — to its handler; false means halt.
func (p *processor) dispatch(env transport.Envelope) bool {
	switch m := env.Payload.(type) {
	case *msgBatch:
		p.dispatchBatch(m, env.From, env.At)
		if p.recycle {
			m.reset()
			framePool.Put(m)
		}
	case msgFrontier:
		p.handleFrontier(m)
	case msgHalt:
		return false
	default:
		panic(fmt.Sprintf("engine: processor %d: unknown message %T", p.idx, env.Payload))
	}
	return true
}

// dispatchBatch replays a batch in queue order. The members are read by
// value — a frame may still be the sender's to retransmit. at is the frame's
// delivery stamp when it is traced (zero otherwise, and for the local
// window): traced members close their frame-transit stage at it.
func (p *processor) dispatchBatch(b *msgBatch, from transport.NodeID, at int64) {
	var pos [numKinds]int
	for _, k := range b.Tags {
		p.maybePause()
		if p.sincePublish++; p.sincePublish == publishEvery {
			p.publish()
		}
		i := pos[k]
		pos[k]++
		switch k {
		case kindInput:
			m := b.Inputs[i]
			if at != 0 {
				m.Ctx = p.sp.Stage(m.Ctx, trace.StageFrame, p.loopU, trace.NoVertex, uint64(from), at)
			}
			p.handleInput(m)
		case kindActivate:
			p.handleActivate(b.Activates[i])
		case kindUpdate:
			m := b.Updates[i]
			if at != 0 {
				m.Ctx = p.sp.Stage(m.Ctx, trace.StageFrame, p.loopU, trace.NoVertex, uint64(from), at)
			}
			p.handleUpdate(m)
		case kindPrepare:
			p.handlePrepare(b.Prepares[i])
		case kindAck:
			p.handleAck(b.Acks[i])
		case kindAdopt:
			p.handleAdopt(b.Adopts[i])
		}
	}
}

// trace records one protocol transition (a trace.Mark* stage) of a watched
// vertex as a marker span.
func (p *processor) trace(stage string, vertex, peer stream.VertexID, iter int64) {
	if p.sp.Watched(uint64(vertex)) {
		p.sp.Mark(stage, p.loopU, uint64(vertex), uint64(peer), iter)
	}
}

// maybePause parks the processor while it is paused. The window's ledger is
// published first, so a pause never hides a release from the tracker.
func (p *processor) maybePause() {
	if !p.paused.Load() {
		return
	}
	p.publish()
	p.pauseMu.Lock()
	p.parked = true
	for p.paused.Load() {
		p.pauseCond.Wait()
	}
	p.parked = false
	p.pauseMu.Unlock()
}

func (p *processor) setPaused(paused bool) {
	p.pauseMu.Lock()
	p.paused.Store(paused)
	p.pauseCond.Broadcast()
	p.pauseMu.Unlock()
}

// ensure returns the vertex loaded, creating it on first touch or loading
// the shell touch left.
func (p *processor) ensure(id stream.VertexID) *vertex {
	v, ok := p.vertices[id]
	if ok && !(p.shells && v.unloaded) {
		return v
	}
	if !ok {
		v = p.host(newVertex(id, p.eng.cfg.Seed))
	}
	p.load(v)
	return v
}

// touch returns the vertex for a message that never reads its state — a
// PREPARE or a valueless COMMIT. Where p.shells holds, a new vertex is hosted
// as an unloaded shell: its stored version is read by the first ensure, if
// one ever comes. Delta mode loads at once, because its bootstrap may
// re-queue a persisted pending.
func (p *processor) touch(id stream.VertexID) *vertex {
	if !p.shells {
		return p.ensure(id)
	}
	v, ok := p.vertices[id]
	if !ok {
		v = p.host(newVertex(id, p.eng.cfg.Seed))
		v.unloaded = true
	}
	return v
}

// load gives a new vertex (or a shell) its starting state: the stored
// version of a branch or restarted engine's snapshot when there is one, the
// program's Init otherwise. It leaves the protocol fields alone, so a
// shell's iteration, producer records and preparing count carry over.
func (p *processor) load(v *vertex) {
	v.unloaded = false
	if snap := p.snap; snap != nil {
		data, _, err := snap.Handle.Latest(v.id, snap.UpTo)
		if err == nil {
			pending, hasPending, derr := StateCodec{}.decodeVertex(data, v)
			if derr != nil {
				panic(fmt.Sprintf("engine: decode snapshot of vertex %d: %v", v.id, derr))
			}
			p.ledger.stats.SnapshotLoads++
			if p.dp != nil && hasPending {
				// A persisted unconsumed pending rides the checkpoint; if it
				// is significant, re-queue it so recovery and branch forks
				// never strand real mass.
				v.pending, v.hasPending = pending, true
				p.deltaSchedule(v, p.tk.AcquireFloor(v.iter))
			}
			return
		}
		if !errors.Is(err, storage.ErrNotFound) {
			panic(fmt.Sprintf("engine: read snapshot of vertex %d: %v", v.id, err))
		}
	}
	ctx := &vertexContext{p: p, v: v, allowTarget: true}
	if p.dp != nil {
		p.dp.Init(ctx)
	} else {
		p.eng.cfg.Program.Init(ctx)
	}
}

// host registers v with this processor: the ID lookup and a share slot
// carrying the vertex's commit and dirty state.
func (p *processor) host(v *vertex) *vertex {
	p.vertices[v.id] = v
	p.shareMu.Lock()
	v.slot = int32(len(p.share))
	p.share = append(p.share, shareSlot{id: v.id, lastCommit: v.lastCommit, dirty: v.dirty})
	p.shareMu.Unlock()
	return v
}

// deltaSchedule decides what to do with a vertex whose pending slot may have
// changed, taking ownership of tok (a held tracker token): park it with the
// queue entry, or release it when the vertex needs no (new) activation.
func (p *processor) deltaSchedule(v *vertex, tok int64) {
	if !v.hasPending || v.dirty {
		// Nothing pending, or an already-scheduled commit will consume the
		// pending under its own dirty token.
		p.ledger.tokens.Release(tok)
		return
	}
	prio := p.dp.Priority(&vertexContext{p: p, v: v}, v.pending)
	if _, queued := p.actQ.Priority(v.id); queued {
		// Merged into an existing activation: re-score it in place and keep
		// the OLDER queued token (it sits at the lower floor, so the merged
		// activation still cannot be passed by the frontier).
		p.actQ.Update(v.id, prio)
		p.ledger.tokens.Release(tok)
		return
	}
	if prio >= p.deltaBase {
		p.actQ.Push(v.id, prio, tok)
		p.deltaDepth.Add(1)
		return
	}
	// Sub-threshold: park the pending (selective activation). The token is
	// released, so a loop whose remaining pendings are all insignificant
	// quiesces — that is the delta-mode convergence criterion.
	p.ledger.stats.DeltaSkipped++
	p.ledger.tokens.Release(tok)
}

// drainActQ fires the activations the frontier has reached — those whose
// parked token sits at p.notified+1, every lower iteration terminated — in
// priority order: each popped vertex is marked dirty (acquiring its own
// commit token before the queue token is released) and offered to the
// three-phase protocol. Later entries wait, still holding their tokens, and
// keep folding gathers into their pendings, so the commit that finally fires
// consumes a whole round's deltas. A parked token holds the tracker's
// minimum at or below its iteration, so the master announces the iteration
// below once every lower obligation is gone; and a queued vertex is neither
// dirty nor preparing — it acks PREPAREs at once — so no lower obligation
// waits on it. Runs at the end of every receive window, handleFrontier's
// included.
func (p *processor) drainActQ() {
	if p.dp == nil {
		return
	}
	for {
		it, ok := p.actQ.PopReady(p.notified + 1)
		if !ok {
			return
		}
		p.deltaDepth.Add(-1)
		v := p.vertices[it.ID]
		p.markDirty(v, it.Token)
		p.ledger.tokens.Release(it.Token)
		p.maybeStart(v)
	}
}

// markDirty acquires the vertex's dirty token at the lower bound of its
// future commit iteration. The vertex's iteration is raised to the token's
// placement so the commit can never land inside a terminated iteration.
// cause is the token whose consumption dirties the vertex, which the caller
// releases right after (math.MaxInt64 if none): when it sits at or below the
// lower bound, the tracker's floor cannot be above the bound either, and the
// acquisition waits in the ledger for the publish that releases the cause.
func (p *processor) markDirty(v *vertex, cause int64) {
	if v.dirty {
		return
	}
	v.dirty = true
	if lower := v.lower(); lower >= cause {
		v.dirtyToken = lower
		p.ledger.tokens.Acquire(lower, 1)
	} else {
		v.dirtyToken = p.tk.AcquireFloor(lower)
	}
	if v.dirtyToken > v.iter {
		v.iter = v.dirtyToken
	}
	p.shareMu.Lock()
	p.share[v.slot].dirty = true
	p.shareMu.Unlock()
}

func (p *processor) handleInput(m msgInput) {
	p.ledger.stats.InputMsgs++
	v := p.ensure(routeVertex(m.Tuple))
	p.trace(trace.MarkInput, v.id, 0, v.iter)
	if m.Ctx.Traced() {
		// Inbox dwell closes at dispatch (delivery -> this handler).
		m.Ctx = p.sp.Stage(m.Ctx, trace.StageInbox, p.loopU, uint64(v.id), 0, p.sp.Now())
	}
	work := heldWork{tuple: m.Tuple, token: m.Token, jseq: m.JSeq, hasJSeq: m.HasJSeq, tctx: m.Ctx}
	if v.preparing() {
		v.holdInput = append(v.holdInput, work)
		return
	}
	p.applyWork(v, work)
	p.maybeStart(v)
}

func (p *processor) handleActivate(m msgActivate) {
	v := p.ensure(m.To)
	p.trace(trace.MarkActivate, v.id, 0, v.iter)
	work := heldWork{token: m.Token, activate: true}
	if v.preparing() {
		v.holdInput = append(v.holdInput, work)
		return
	}
	p.applyWork(v, work)
	p.maybeStart(v)
}

// applyWork applies one input or activation: graph deltas mutate the target
// set, payloads go to the program, and the vertex becomes dirty. The work's
// token is released only after the dirty token is acquired, so the frontier
// never passes over the pending commit.
func (p *processor) applyWork(v *vertex, w heldWork) {
	if w.activate {
		v.activated = true
		p.markDirty(v, w.token)
	} else {
		ctx := &vertexContext{p: p, v: v, allowTarget: true}
		stale := false
		switch w.tuple.Kind {
		case stream.KindAddEdge, stream.KindRemoveEdge:
			// Event-time gate: a retransmitted edge operation must not
			// override a newer one for the same target (at-least-once
			// delivery does not preserve order across retransmissions).
			e := v.edge(w.tuple.Dst)
			if e.flags&edgeClocked != 0 && w.tuple.Time < e.clock {
				stale = true
				break
			}
			e.clock, e.flags = w.tuple.Time, e.flags|edgeClocked
			if w.tuple.Kind == stream.KindAddEdge {
				e.add()
			} else {
				e.remove()
			}
		}
		if !stale {
			if p.dp != nil {
				p.dp.OnInput(ctx, w.tuple)
			} else {
				p.eng.cfg.Program.OnInput(ctx, w.tuple)
			}
			p.markDirty(v, w.token)
		}
		if w.tctx.Traced() {
			// The delta's state change has landed: close the process stage
			// and park the context on the vertex for commit attribution.
			p.adoptTraceCtx(v, p.sp.Stage(w.tctx, trace.StageProcess,
				p.loopU, uint64(v.id), 0, p.sp.Now()))
		}
		if w.hasJSeq {
			// Applied: the vertex's next commit stamps it in the journal. A
			// stale operation on a clean vertex has no commit coming; it is
			// reflected in everything since the vertex's last one.
			if v.jseqs = append(v.jseqs, w.jseq); !v.dirty {
				p.journalCommitted(v, v.lastCommit)
			}
		}
		// The input has landed on its vertex: hand the admission credit back
		// so the gate tracks unapplied inputs, not unterminated iterations.
		p.ledger.credits++
	}
	p.ledger.tokens.Release(w.token)
}

func (p *processor) handleUpdate(m msgUpdate) {
	p.ledger.updates++
	// Delay bounding (Section 4.4): updates committed at the cap iteration
	// are not gathered until the frontier advances. The producer has
	// committed either way, so it stops blocking our own update immediately
	// — only the observation of its value is delayed. Without this split a
	// consumer waiting on a held-back producer could pin the frontier below
	// the cap forever.
	if m.Iteration >= p.cap() {
		v := p.ensure(m.To)
		p.trace(trace.MarkHoldback, v.id, m.From, m.Iteration)
		v.committedBy(m.From)
		p.holdback[m.Iteration] = append(p.holdback[m.Iteration], m)
		p.maybeStart(v)
		return
	}
	p.gatherUpdate(m)
}

func (p *processor) gatherUpdate(m msgUpdate) {
	var v *vertex
	if m.HasValue {
		v = p.ensure(m.To)
	} else {
		v = p.touch(m.To)
	}
	p.trace(trace.MarkGather, v.id, m.From, m.Iteration)
	if m.Ctx.Traced() {
		// Inbox dwell (including delay-bound holdback) closes at gather.
		m.Ctx = p.sp.Stage(m.Ctx, trace.StageInbox, p.loopU, uint64(m.To), uint64(m.From), p.sp.Now())
	}
	// Causality (Eq. 1): observing an update stamped i forces τ(x) > i.
	if m.Iteration+1 > v.iter {
		v.iter = m.Iteration + 1
	}
	if !m.HasValue {
		v.committedBy(m.From)
	} else {
		// One search serves both: the producer has committed, and its record
		// gates the value. Per-producer monotonicity: a producer's commits
		// carry strictly increasing iterations, so an update at or below the
		// last gathered one is a retransmission-reordered stale value and
		// must be discarded (Section 5.3).
		from := v.producer(m.From, true)
		v.committed(from)
		if m.Iteration > from.seen {
			from.seen = m.Iteration
			ctx := &vertexContext{p: p, v: v}
			if p.dp != nil {
				// Delta mode: the message becomes a local delta (diffed
				// against the per-producer record when cumulative) and folds
				// into the pending slot instead of dirtying the vertex; the
				// scheduler decides whether the merged pending is worth an
				// activation.
				if d, ok := p.dp.Gather(ctx, m.From, m.Value, m.Cum); ok {
					if v.hasPending {
						v.pending = p.dp.Accumulate(v.pending, d)
						p.ledger.stats.DeltaMerged++
					} else {
						v.pending, v.hasPending = d, true
					}
					if m.Ctx.Traced() {
						p.adoptTraceCtx(v, p.sp.Stage(m.Ctx, trace.StageProcess,
							p.loopU, uint64(m.To), uint64(m.From), p.sp.Now()))
					}
				}
				// Significant pendings commit through the activation queue
				// once the frontier reaches them. Everything else must STILL
				// commit this window: Gather may rewrite the per-producer
				// record even when it yields no delta, and a parked pending
				// has to reach the blob — quiescent checkpoints must equal
				// in-memory state or branch forks and adoption silently lose
				// records. The no-op commit emits nothing, so selective
				// activation still saves its update messages. markDirty
				// acquires its commit token before the message token is
				// released.
				if !v.dirty && v.hasPending {
					prio := p.dp.Priority(ctx, v.pending)
					if _, queued := p.actQ.Priority(v.id); queued {
						// Merged into an existing activation: re-score it in
						// place; the queued (older) token keeps the floor.
						p.actQ.Update(v.id, prio)
						p.ledger.tokens.Release(m.Token)
					} else if prio >= p.deltaBase {
						p.actQ.Push(v.id, prio, m.Token)
						p.deltaDepth.Add(1)
					} else {
						// Sub-threshold: park the pending (selective
						// activation) but persist it and the gathered record.
						p.ledger.stats.DeltaSkipped++
						p.markDirty(v, m.Token)
						p.ledger.tokens.Release(m.Token)
					}
				} else {
					p.markDirty(v, m.Token)
					p.ledger.tokens.Release(m.Token)
				}
				p.maybeStart(v)
				return
			}
			p.eng.cfg.Program.Gather(ctx, m.From, m.Iteration, m.Value)
			p.markDirty(v, m.Token)
			if m.Ctx.Traced() {
				p.adoptTraceCtx(v, p.sp.Stage(m.Ctx, trace.StageProcess,
					p.loopU, uint64(m.To), uint64(m.From), p.sp.Now()))
			}
		}
	}
	p.ledger.tokens.Release(m.Token)
	p.maybeStart(v)
}

// adoptTraceCtx parks a traced context on the vertex so the next commit is
// attributed to it. When a different trace already sits there, the older one
// is coalesced: it records its terminal span linking to the newcomer, and the
// newcomer carries a link back — latency absorbed by batching stays visible.
func (p *processor) adoptTraceCtx(v *vertex, ctx trace.Context) {
	if !ctx.Traced() {
		return
	}
	if v.tctx.Traced() && v.tctx.Trace != ctx.Trace {
		old := v.tctx
		old.Link = ctx.Trace
		p.sp.Stage(old, trace.StageCoalesce, p.loopU, uint64(v.id), 0, p.sp.Now())
		ctx.Link = old.Trace
	}
	v.tctx = ctx
}

func (p *processor) handlePrepare(m msgPrepare) {
	v := p.touch(m.To)
	p.trace(trace.MarkPrepareRecv, v.id, m.From, v.iter)
	p.clock.Witness(m.Stamp.Time)
	if from := v.producer(m.From, true); !from.preparing {
		from.preparing = true
		v.npreparing++
	}
	// Only acknowledge producers whose update happened before our own
	// in-flight update; later ones wait until we commit (Figure 3,
	// OnReceivePrepare). The Lamport order makes this deadlock-free.
	if !v.preparing() || m.Stamp.Before(v.stamp) {
		p.ledger.stats.AckMsgs++
		p.trace(trace.MarkAckSend, v.id, m.From, v.iter)
		p.window(m.From).addAck(msgAck{From: v.id, To: m.From, Iteration: v.iter})
	} else {
		v.pendingAcks = append(v.pendingAcks, m.From)
	}
}

func (p *processor) handleAck(m msgAck) {
	v, ok := p.vertices[m.To]
	if !ok || !v.preparing() {
		return // stale ack (e.g. duplicate delivery)
	}
	p.trace(trace.MarkAckRecv, v.id, m.From, m.Iteration)
	if m.Iteration > v.iter {
		v.iter = m.Iteration
	}
	if i, ok := v.findOut(m.From); ok && v.out[i].flags&edgeOwesAck != 0 {
		v.out[i].flags &^= edgeOwesAck
		v.nwaiting--
		p.ledger.prepares--
	}
	if v.nwaiting == 0 {
		p.commit(v)
	}
}

func (p *processor) handleFrontier(m msgFrontier) {
	if m.Notified <= p.notified {
		return
	}
	// Flush before raising the cap: updates queued so far committed under
	// the old cap, and a coalescing window must never span a cap change
	// (DESIGN §8) — the delay bound's accounting assumes a frame's updates
	// were all admissible when they were committed.
	p.flushOut()
	p.notified = m.Notified
	c := p.cap()
	// Release held-back updates that are now below the cap, oldest iteration
	// first: one producer can have updates held at two iterations, and
	// gathering the newer first would make the per-producer monotonic check
	// discard the older as stale.
	for _, iter := range p.heldIters() {
		if iter >= c {
			break
		}
		msgs := p.holdback[iter]
		delete(p.holdback, iter)
		for _, u := range msgs {
			p.gatherUpdate(u)
		}
	}
	// Retry vertices whose commit was blocked by the old cap.
	blocked := p.capQ
	p.capQ = nil // a retry that is still blocked queues afresh
	for _, v := range blocked {
		v.capBlocked = false
		p.maybeStart(v)
	}
}

// heldIters returns the iterations that have updates held back, ascending
// (valid until the next call).
func (p *processor) heldIters() []int64 {
	p.iterBuf = p.iterBuf[:0]
	for iter := range p.holdback {
		p.iterBuf = append(p.iterBuf, iter)
	}
	slices.Sort(p.iterBuf)
	return p.iterBuf
}

// maybeStart begins the vertex's update (phase two, or a direct commit) when
// permitted: the vertex must be dirty, must not already be preparing, and
// must not be involved in any producer's preparation.
func (p *processor) maybeStart(v *vertex) {
	if v == nil || v.preparing() || !v.dirty || v.npreparing > 0 {
		return
	}
	lower, c := v.lower(), p.cap()
	if lower > c {
		if !v.capBlocked {
			v.capBlocked = true
			p.capQ = append(p.capQ, v)
		}
		return
	}
	v.stamp = lamport.Stamp{Time: p.clock.Tick(), Owner: uint64(v.id)}
	// A vertex committing at the cap can skip the prepare phase: no consumer
	// iteration can exceed the cap (Section 4.4). So can a vertex with no
	// consumers. The consumer set cannot change between here and this
	// update's commit: inputs and activations are held while preparing, and
	// adoption skips a preparing vertex.
	if lower < c || p.eng.cfg.DisablePrepareSkip {
		for i := range v.out {
			if e := &v.out[i]; e.flags&edgeConsumer != 0 {
				e.flags |= edgeOwesAck
				v.nwaiting++
				p.trace(trace.MarkPrepareSend, v.id, e.to, lower)
				p.window(e.to).addPrepare(msgPrepare{From: v.id, To: e.to, Stamp: v.stamp})
			}
		}
		if v.nwaiting > 0 {
			p.ledger.stats.PrepareMsgs += int64(v.nwaiting)
			p.ledger.prepares += int64(v.nwaiting)
			return
		}
	}
	p.commit(v)
}

// commit is phase three: fix the iteration number, run the user Scatter,
// persist the new version, propagate COMMIT messages, answer deferred
// prepares, and finally apply inputs that arrived during the preparation.
func (p *processor) commit(v *vertex) {
	tau := v.iter
	if v.lastCommit+1 > tau {
		tau = v.lastCommit + 1
	}
	// tau may exceed this processor's cap view when an ACK arrived from a
	// consumer whose processor has already observed a newer frontier; it is
	// still bounded by the global cap (consumer iterations never exceed it)
	// and cannot fall into a terminated iteration (the dirty token pins the
	// global frontier at or below it).
	if d := p.eng.cfg.CommitDelay; d != nil {
		if delay := d(p.idx); delay > 0 {
			time.Sleep(delay)
		}
	}
	if ns := p.eng.slow[p.idx].Load(); ns > 0 {
		time.Sleep(time.Duration(ns)) // injected slow-consumer fault
	}
	v.iter = tau
	v.lastCommit = tau
	if tau > p.maxCommit.Load() {
		p.maxCommit.Store(tau)
	}
	p.trace(trace.MarkCommit, v.id, 0, tau)

	// User scatter collects emissions.
	v.emits = p.emitBuf[:0]
	ctx := &vertexContext{p: p, v: v, allowEmit: true}
	if p.dp != nil {
		// A queued activation for this vertex is satisfied by this commit
		// (and consuming the pending would strand the entry): drop it and
		// release its parked token — the dirty token is still held.
		if it, ok := p.actQ.Remove(v.id); ok {
			p.deltaDepth.Add(-1)
			p.ledger.tokens.Release(it.Token)
		}
		// Consume the pending if it is significant or the commit was forced
		// by an activation (recovery replay, branch seed — those must fold
		// everything for exactness). A sub-threshold pending stays parked
		// and is persisted with the state below.
		pend := p.dp.Identity()
		if v.hasPending && (v.activated ||
			p.dp.Priority(&vertexContext{p: p, v: v}, v.pending) >= p.deltaBase) {
			pend = v.pending
			v.pending, v.hasPending = nil, false
			p.ledger.stats.DeltaApplied++
		}
		p.dp.Update(ctx, pend)
	} else {
		p.eng.cfg.Program.Scatter(ctx)
	}

	// Persist before propagating: when the iteration terminates, all of its
	// versions are already in the store (checkpoint property, Section 5.3).
	p.persist(v, tau)
	p.ledger.tokens.RecordCommit(tau, v.progress)
	v.progress = 0
	p.ledger.stats.Commits++
	p.ledger.commits++
	p.journalCommitted(v, tau)

	// Close the traced delta's commit stage (apply -> version persisted) and
	// register the commit for frontier-lag attribution. The restamped context
	// is handed to exactly ONE outgoing update (the first, below): a trace is
	// a causal path through the propagation, not the delta's whole cone —
	// with fanout f a cone-traced commit would amplify into ~f^depth traced
	// messages and 1% head sampling would degenerate into tracing half the
	// message plane (the trace_overhead bench gate pins this).
	var tctx trace.Context
	if v.tctx.Traced() {
		tctx = p.sp.Stage(v.tctx, trace.StageCommit, p.loopU, uint64(v.id), 0, p.sp.Now())
		p.eng.noteTracedCommit(tctx, tau)
		v.tctx = trace.Context{}
	}

	// Propagate: every effective consumer gets a COMMIT message; those the
	// program emitted to carry the value. Message tokens live at tau+1 and
	// are acquired, in one call, before the dirty token is released — in the
	// same ledger, whose publish counts them first: the dirty token at or
	// below tau keeps the floor below tau+1 until then.
	nmsgs := len(v.emits)
	for i := range v.out {
		if f := v.out[i].flags; f&edgeConsumer != 0 && f&edgeEmitted == 0 {
			nmsgs++
		}
	}
	tok := tau + 1
	p.ledger.tokens.Acquire(tok, nmsgs)
	for _, em := range v.emits {
		e := &v.out[em.edge]
		p.sendUpdate(e, msgUpdate{From: v.id, To: e.to, Iteration: tau, Token: tok, Value: em.value, HasValue: true, Cum: em.cum, Ctx: tctx})
		tctx = trace.Context{}
	}
	// One pass over the edge records sends the valueless COMMITs and closes
	// the update out: added/removed marks drop, and a record with nothing left
	// to remember (a clock-less target removed again) is compacted away.
	kept := v.out[:0]
	for i := range v.out {
		e := v.out[i]
		if e.flags&edgeConsumer != 0 && e.flags&edgeEmitted == 0 {
			p.sendUpdate(&e, msgUpdate{From: v.id, To: e.to, Iteration: tau, Token: tok, Ctx: tctx})
			tctx = trace.Context{}
		}
		if e.flags &^= edgeAdded | edgeRemoved | edgeEmitted; e.flags != 0 {
			kept = append(kept, e)
		}
	}
	v.out = kept
	p.ledger.stats.UpdateMsgs += int64(nmsgs)

	p.emitBuf, v.emits = v.emits[:0], nil
	v.dirty = false
	v.activated = false
	v.stamp = lamport.Stamp{}
	p.shareMu.Lock()
	p.share[v.slot].dirty, p.share[v.slot].lastCommit = false, tau
	p.shareMu.Unlock()
	if v.dirtyToken >= 0 {
		p.ledger.tokens.Release(v.dirtyToken)
		v.dirtyToken = -1
	}

	// Answer prepares deferred during our update (Figure 3, OnCommitUpdate).
	if len(v.pendingAcks) > 0 {
		p.ledger.stats.AckMsgs += int64(len(v.pendingAcks))
		for _, producer := range v.pendingAcks {
			p.trace(trace.MarkAckSend, v.id, producer, v.iter)
			p.window(producer).addAck(msgAck{From: v.id, To: producer, Iteration: v.iter})
		}
		v.pendingAcks = v.pendingAcks[:0]
	}

	// Gather the inputs that arrived during the preparation; they may make
	// the vertex dirty again and trigger the protocol anew.
	if len(v.holdInput) > 0 {
		held := v.holdInput
		v.holdInput = nil
		for _, w := range held {
			p.applyWork(v, w)
		}
		p.maybeStart(v)
	}
}

// journalCommitted stamps, in the ledger, the inputs v applied since its last
// commit with iter.
func (p *processor) journalCommitted(v *vertex, iter int64) {
	for _, seq := range v.jseqs {
		p.ledger.stamps = append(p.ledger.stamps, journalStamp{seq: seq, iter: iter})
	}
	v.jseqs = v.jseqs[:0]
}

// publish hands the window's ledger to the shared accounting of this
// processor's incarnation. Journal stamps go first: a fork at an iteration
// the releases below terminate must find those inputs committed, or its
// residual re-applies them. The counters, PREPAREs and gate credits go next,
// so an observer that saw the loop quiesce sees them too; the tracker last.
// Called before the windows ship (flushOut), so every receiver's release
// follows its token's count, every publishEvery dispatched messages
// (dispatchBatch; any point between two messages is safe, since a deferred
// acquisition and the release covering it fall in one handler), before
// parking (maybePause) and before run returns — an old incarnation's
// processor has exited by the time its successor's restart resets the
// shared gauges.
func (p *processor) publish() {
	p.sincePublish = 0
	l := &p.ledger
	if len(l.stamps) > 0 {
		p.eng.journal.Committed(l.stamps)
		l.stamps = l.stamps[:0]
	}
	p.eng.stats.add(&l.stats)
	if l.prepares != 0 {
		p.eng.pendingPrepares.Add(l.prepares)
		l.prepares = 0
	}
	if l.commits != 0 {
		p.commitCount.Add(l.commits)
		l.commits = 0
	}
	if l.updates != 0 {
		p.updateCount.Add(l.updates)
		l.updates = 0
	}
	if l.credits > 0 {
		if g := p.eng.ingestGate; g != nil {
			g.Release(l.credits)
		}
		l.credits = 0
	}
	p.tk.Publish(&l.tokens)
}

// persist writes the vertex's current version at iter, encoded straight from
// the vertex's edge records into the processor's scratch buffer.
func (p *processor) persist(v *vertex, iter int64) {
	data, err := StateCodec{}.appendVertex(p.encBuf[:0], v)
	if err != nil {
		panic(fmt.Sprintf("engine: encode vertex %d: %v", v.id, err))
	}
	p.encBuf = data
	if err := p.eng.cfg.Store.Put(p.eng.cfg.LoopID, v.id, iter, data); err != nil {
		panic(fmt.Sprintf("engine: persist vertex %d: %v", v.id, err))
	}
}

// window returns the current window's batch for the processor owning vertex to.
func (p *processor) window(to stream.VertexID) *msgBatch {
	return p.out.win[p.eng.owner(to)]
}

// sendUpdate queues a commit's update along the producer's edge record e,
// coalescing it into an update the window still holds for the same consumer.
func (p *processor) sendUpdate(e *outEdge, m msgUpdate) {
	w := p.window(m.To)
	if e.qEpoch == w.epoch {
		q := &w.Updates[e.qPos]
		*q = p.coalesceUpdate(*q, m)
		w.Traced = w.Traced || q.Ctx.Traced()
		return
	}
	e.qEpoch, e.qPos = w.epoch, int32(len(w.Updates))
	w.addUpdate(m)
}

// coalesceUpdate merges a pending update with a newer one from the same
// producer to the same consumer. The merged message carries the newer commit
// iteration; the value is the program's Combine when it implements Combiner,
// otherwise last-writer (safe because per-producer monotonic discard already
// lets a consumer observe only the newest of consecutive updates — dropping
// the older one realizes a schedule retransmission reordering could have
// produced anyway). A valueless newer update (consumer fell out of the emit
// set) carries the older value forward: a no-value COMMIT only clears
// prepare state, which the merged update does regardless.
//
// Token discipline: the newer token sits at the newer tau+1 >= the older
// token's placement, and both are held at this instant, so releasing the
// older one preserves the tracker's acquire-before-release invariant.
func (p *processor) coalesceUpdate(old, next msgUpdate) msgUpdate {
	merged := next
	if old.HasValue {
		switch {
		case !next.HasValue:
			merged.Value, merged.HasValue, merged.Cum = old.Value, true, old.Cum
		case p.dp != nil:
			if next.Cum {
				// A newer cumulative value supersedes whatever preceded it
				// (it already embodies every earlier delta): last-writer.
			} else {
				// A plain delta folds into the pending message with the
				// program's accumulator — delta merge IS the combiner. The
				// merged value keeps the older message's cumulative flag
				// (cum ⊕ delta is the newer cumulative value).
				merged.Value = p.dp.Accumulate(old.Value, next.Value)
				merged.Cum = old.Cum
			}
		case p.combiner != nil:
			merged.Value = p.combiner.Combine(next.To, old.Value, next.Value)
		}
	}
	// Trace batching visibility: the coalesced-away update's trace records
	// its terminal span linking to the survivor, and the survivor's context
	// carries a link back; a traced old context survives into an untraced
	// newer update outright.
	if old.Ctx.Traced() {
		if merged.Ctx.Traced() && merged.Ctx.Trace != old.Ctx.Trace {
			oc := old.Ctx
			oc.Link = merged.Ctx.Trace
			p.sp.Stage(oc, trace.StageCoalesce, p.loopU, uint64(next.To), uint64(next.From), p.sp.Now())
			merged.Ctx.Link = old.Ctx.Trace
		} else if !merged.Ctx.Traced() {
			merged.Ctx = old.Ctx
		}
	}
	p.ledger.tokens.Release(old.Token)
	p.ledger.stats.Coalesced++
	return merged
}

// flushOut publishes the window's ledger, then ships the windows for the
// other processors as frames, in order, and retires every coalescing slot —
// this processor's own window included, whose messages stay queued for run to
// dispatch. Called at the end of every receive window (so the processor never
// blocks on an unflushed window or an unpublished ledger) and before applying
// a frontier advance (so no coalesced update ever merges commits made under
// different iteration caps).
func (p *processor) flushOut() {
	p.publish()
	for _, w := range p.out.win {
		if len(w.Tags) > 0 {
			w.epoch = p.nextEpoch()
		}
	}
	p.out.ship(p.ep, p.idx, p.eng.cfg.MaxBatch, p.sp, p.loopU)
}

// forkScan returns the fork seed set of this partition: vertices whose last
// commit is at or after forkIter, plus currently dirty vertices. Together
// with the journal residual these cover every effect missing from the
// snapshot at forkIter. above reports whether any of them is dirty or
// committed after forkIter — activity the snapshot cannot hold yet. The
// seeds come back unsorted.
func (p *processor) forkScan(forkIter int64) (seeds []stream.VertexID, above bool) {
	p.shareMu.Lock()
	for i := range p.share {
		if s := &p.share[i]; s.dirty || s.lastCommit >= forkIter {
			seeds = append(seeds, s.id)
			above = above || s.dirty || s.lastCommit > forkIter
		}
	}
	p.shareMu.Unlock()
	return seeds, above
}

// hosted returns, ascending, the IDs of the vertices this processor hosts.
func (p *processor) hosted() []stream.VertexID {
	p.shareMu.Lock()
	ids := make([]stream.VertexID, len(p.share))
	for i := range p.share {
		ids[i] = p.share[i].id
	}
	p.shareMu.Unlock()
	slices.Sort(ids)
	return ids
}

// routeVertex returns the vertex an input tuple is routed to: edge tuples go
// to the producer endpoint (the owner of the out-edge list), payloads to
// their destination.
func routeVertex(t stream.Tuple) stream.VertexID {
	switch t.Kind {
	case stream.KindAddEdge, stream.KindRemoveEdge:
		return t.Src
	default:
		return t.Dst
	}
}
