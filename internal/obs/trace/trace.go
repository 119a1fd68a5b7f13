// Package trace is the causal-span pipeline behind Tornado's freshness
// accounting: it follows a sampled input delta from spout ingestion through
// the admission gate, the transport output buffer, the frame batch, the peer
// inbox, engine processing/coalescing, iteration commit, and the frontier
// advance — and, for queries, from Submit through coalesce/cache/fork to
// result delivery.
//
// The design constraints, in order:
//
//   - Hot-path cost at the default 1% sampling must be a bool/atomic check
//     per message plus one span record per sampled stage. Untraced contexts
//     are zero values that every stage call short-circuits on.
//   - Trace context rides the existing message/payload structs as plain
//     exported fields (Context below), so a future wire codec serializes it
//     for free; nothing in a Context is a pointer or an in-process handle.
//   - Sampling is head-based probabilistic (decided once per delta at
//     ingestion, carried in the Sampled bit so every stage agrees without
//     coordination) with a tail-based escalation path: degradation rungs
//     L1–L3, ErrOverloaded sheds, transport resends, and crash/recovery
//     incarnations force-retain traces by (a) recording a marker span for
//     the triggering event and (b) opening a window during which new deltas
//     are traced regardless of the head decision — up to a fixed budget per
//     window, so a resend storm under saturation cannot silently flip the
//     system to full sampling and collapse the very throughput the traces
//     are meant to explain.
//   - Batching must stay visible: when two updates coalesce, the surviving
//     payload's context carries a span *link* to the merged trace and the
//     merged trace records a terminal "coalesce" span pointing at the
//     survivor, so latency absorbed by coalescing is attributed, not lost.
package trace

import (
	"sync"
	"sync/atomic"
	"time"
)

// Stage names recorded by the pipeline. They double as the `stage` label of
// the tornado_stage_seconds histogram, so they are short and low-cardinality.
const (
	StageSpout    = "spout"    // spout emission -> main-loop ingest entry
	StageGate     = "gate"     // admission-gate wait
	StageBatch    = "batch"    // transport output buffer dwell (Send -> frame seal)
	StageFrame    = "frame"    // frame transit incl. credit parking (seal -> inbox)
	StageInbox    = "inbox"    // peer inbox dwell (delivery -> dispatch)
	StageProcess  = "process"  // dispatch -> state applied / update gathered
	StageCommit   = "commit"   // apply -> three-phase commit persisted
	StageCoalesce = "coalesce" // terminal span of a trace merged into a survivor
	StageAck      = "ack"      // frame seal -> cumulative ack covered it
	StageFrontier = "frontier" // commit -> frontier watermark covered its iteration

	StageQuerySubmit   = "query_submit"   // Submit entry -> admitted to a flight
	StageQueryCache    = "query_cache"    // Submit served from the freshness-bounded cache
	StageQueryCoalesce = "query_coalesce" // Submit joined another query's flight
	StageQueryQueue    = "query_queue"    // flight queued -> worker picked it up
	StageQueryFork     = "query_fork"     // branch-loop fork call
	StageQueryWait     = "query_wait"     // fork -> branch convergence
	StageQueryServe    = "query_serve"    // convergence -> result handed out
)

// Escalation marker stages (always Forced).
const (
	MarkResend     = "resend"      // transport resent a frame carrying this trace
	MarkDeadLetter = "dead_letter" // transport gave up on a frame carrying this trace
	MarkShed       = "shed"        // query shed with ErrOverloaded
	MarkRung       = "rung"        // degradation-rung transition
	MarkRecovery   = "recovery"    // crash/recovery incarnation swap
)

// NoVertex marks spans not tied to a vertex.
const NoVertex = ^uint64(0)

// forcedBudget bounds how many traces one tail-escalation window (or rung
// transition) may force-retain: enough fully-traced deltas to reconstruct the
// incident, small enough that escalation cannot become de-facto 100% sampling
// (the trace_overhead bench gate pins the cost). Triggers landing inside an
// already-open window extend it but spend from the same budget.
const forcedBudget = 512

// maxHops bounds the spans one trace may record: Tornado's dataflow is
// cyclic and amplifying, so a fully-traced delta would otherwise follow the
// propagation forever. Past the cap the context goes quiet.
const maxHops = 192

// Context is the trace context carried by message and payload structs. The
// zero value means "not traced" and costs one bool check per stage. All
// fields are exported plain data so a wire codec can serialize the context
// unchanged across process boundaries.
type Context struct {
	// Trace identifies the delta's trace (0 = none assigned).
	Trace uint64
	// Span is the ID of the most recent span recorded for this trace; the
	// next stage records it as its parent.
	Span uint64
	// Link is a trace merged into this one by coalescing, consumed (and
	// reset) by the next recorded span.
	Link uint64
	// Stamp is the wall-clock nanosecond of the last stage boundary.
	Stamp int64
	// Hops counts recorded stages, bounding amplification (see maxHops).
	Hops uint8
	// Sampled is the head-based sampling decision; stages record only when
	// it is set.
	Sampled bool
	// Forced marks a context retained by tail escalation rather than the
	// head probability.
	Forced bool
}

// Traced reports whether stages of this context should record spans.
func (c Context) Traced() bool { return c.Sampled && c.Trace != 0 }

// Carrier is implemented by transport payloads whose members carry Contexts,
// letting the transport (which sees payloads as `any`) tell a traced frame
// from an untraced one and attribute a resend or dead letter to a trace
// without knowing concrete types. TraceCtx returns the context of the first
// traced member, or the zero Context when there is none.
type Carrier interface {
	TraceCtx() Context
}

// Span is one recorded stage of a trace.
type Span struct {
	// Seq is a strictly increasing record sequence number (recording order).
	Seq uint64
	// Trace and ID identify the span; Parent is the preceding span of the
	// same trace (0 for the first).
	Trace, ID, Parent uint64
	// Link is a trace coalesced into this one at this stage (0 = none).
	Link uint64
	// Stage is the stage name (Stage* / Mark* constants).
	Stage string
	// Loop is the loop the stage ran in; Vertex/Peer locate it (NoVertex
	// when not vertex-scoped; Peer is a transport node or consumer).
	Loop, Vertex, Peer uint64
	// Start is the stage's start offset from the tracer's start; Dur is the
	// stage's duration (clamped to 1ns when below clock resolution, so a
	// recorded stage is never zero-width).
	Start, Dur time.Duration
	// Rung is the degradation rung at record time; Forced marks spans
	// retained by tail escalation.
	Rung   int32
	Forced bool
}

// Tracer records spans into a fixed-capacity ring. Writes are mutex-guarded
// so a reader can never observe a half-written span (the wraparound test in
// this package pins that contract); the hot-path discipline is to check
// Enabled()/Context.Traced() first, which costs one atomic or bool load.
// A nil *Tracer is valid and permanently disabled.
type Tracer struct {
	start     time.Time
	startNano int64

	on        atomic.Bool   // any tracing possible (rate > 0 or rung > 0)
	threshold atomic.Uint64 // head sampling: record iff vhash(trace) < threshold
	rung      atomic.Int32  // current degradation rung (L0–L3)

	nextTrace   atomic.Uint64
	nextSpan    atomic.Uint64
	recorded    atomic.Uint64
	escalations atomic.Uint64

	// escalateUntil is the tail-escalation window: while now <= this (and
	// forcedLeft holds budget), Begin samples regardless of the head
	// probability.
	escalateUntil atomic.Int64
	forcedLeft    atomic.Int64
	windowNanos   int64

	// onSpan, when set, observes every recorded span (the obs hub points it
	// at the per-stage latency histogram). Called outside the ring lock.
	onSpan atomic.Pointer[func(Span)]

	mu   sync.Mutex
	buf  []Span
	head int // next write position
	n    int // valid entries
	seq  uint64
}

// EscalationWindow is how long tail escalation forces full sampling after a
// trigger (resend, shed, rung transition, recovery).
const EscalationWindow = 2 * time.Second

// NewTracer returns a span tracer with the given ring capacity (default 4096
// when <= 0) sampling the given fraction of traces (clamped to [0, 1]).
func NewTracer(capacity int, rate float64) *Tracer {
	if capacity <= 0 {
		capacity = 4096
	}
	now := time.Now()
	t := &Tracer{
		start:       now,
		startNano:   now.UnixNano(),
		buf:         make([]Span, capacity),
		windowNanos: int64(EscalationWindow),
	}
	t.SetRate(rate)
	return t
}

// SetRate adjusts the head sampling probability (0 disables, 1 traces every
// delta).
func (t *Tracer) SetRate(p float64) {
	if t == nil {
		return
	}
	switch {
	case p <= 0:
		t.threshold.Store(0)
	case p >= 0.9999:
		t.threshold.Store(^uint64(0))
	default:
		t.threshold.Store(uint64(p * float64(1<<32) * float64(1<<32)))
	}
	t.refreshOn()
}

// Rate returns the head sampling probability.
func (t *Tracer) Rate() float64 {
	if t == nil {
		return 0
	}
	th := t.threshold.Load()
	if th == ^uint64(0) {
		return 1
	}
	return float64(th) / (float64(1<<32) * float64(1<<32))
}

func (t *Tracer) refreshOn() {
	t.on.Store(t.threshold.Load() > 0 || t.rung.Load() > 0)
}

// Enabled reports whether any tracing is possible; hot paths check it before
// touching contexts. One atomic load, nil-safe.
func (t *Tracer) Enabled() bool { return t != nil && t.on.Load() }

// Now returns the wall-clock nanosecond used for stamps. Callers on a hot
// path should call it once and reuse the value across Begin/Stage calls.
func (t *Tracer) Now() int64 { return time.Now().UnixNano() }

// vhash mixes an ID so threshold sampling is unbiased for sequential IDs.
func vhash(v uint64) uint64 {
	v *= 0x9E3779B97F4A7C15
	v ^= v >> 32
	return v
}

// Begin assigns a trace context to a new input delta. The head sampling
// decision is made here, once, and carried in the Sampled bit; during a tail
// escalation window (or while a degradation rung is active) every delta is
// sampled and marked Forced.
func (t *Tracer) Begin(now int64) Context {
	if !t.Enabled() {
		return Context{}
	}
	id := t.nextTrace.Add(1)
	ctx := Context{Trace: id, Stamp: now}
	if t.rung.Load() > 0 || now <= t.escalateUntil.Load() {
		if t.forcedLeft.Add(-1) >= 0 {
			ctx.Sampled, ctx.Forced = true, true
			return ctx
		}
	}
	th := t.threshold.Load()
	ctx.Sampled = th == ^uint64(0) || (th > 0 && vhash(id) < th)
	return ctx
}

// Stage records the stage that just completed for a traced context — its
// duration is now minus the context's last boundary stamp — and returns the
// context restamped at now with the new span as parent. Untraced contexts
// pass through unchanged at the cost of one bool check.
func (t *Tracer) Stage(ctx Context, stage string, loop, vertex, peer uint64, now int64) Context {
	if t == nil || !ctx.Traced() {
		return ctx
	}
	if ctx.Hops >= maxHops {
		ctx.Sampled = false
		return ctx
	}
	ctx.Hops++
	dur := now - ctx.Stamp
	if dur < 1 {
		// Below clock resolution: a recorded stage still occupied time.
		dur = 1
	}
	id := t.nextSpan.Add(1)
	t.record(Span{
		Trace: ctx.Trace, ID: id, Parent: ctx.Span, Link: ctx.Link,
		Stage: stage, Loop: loop, Vertex: vertex, Peer: peer,
		Start: time.Duration(ctx.Stamp - t.startNano), Dur: time.Duration(dur),
		Rung: t.rung.Load(), Forced: ctx.Forced,
	})
	ctx.Span = id
	ctx.Stamp = now
	ctx.Link = 0
	return ctx
}

// Escalate records a tail-escalation marker span for the triggering event
// (resend, shed, dead letter, recovery) and opens the escalation window so
// deltas beginning in the next EscalationWindow are fully traced. ctx may be
// an untraced or zero context — the marker still records against its trace
// ID (0 for system-wide events).
func (t *Tracer) Escalate(reason string, ctx Context, now int64) {
	if !t.Enabled() {
		return
	}
	if now > t.escalateUntil.Load() {
		// A fresh incident: rearm the forced-trace budget. Triggers inside an
		// open window only extend it, so a continuous storm retains at most
		// forcedBudget traces until it quiets for a full window.
		t.forcedLeft.Store(forcedBudget)
	}
	t.escalateUntil.Store(now + t.windowNanos)
	t.escalations.Add(1)
	id := t.nextSpan.Add(1)
	t.record(Span{
		Trace: ctx.Trace, ID: id, Parent: ctx.Span, Stage: reason,
		Vertex: NoVertex, Start: time.Duration(now - t.startNano),
		Rung: t.rung.Load(), Forced: true,
	})
}

// SetRung records the current degradation rung. While the rung is above
// zero, every new trace is force-retained (the L1–L3 contract) and every
// span carries the rung; a transition to a higher rung also records a marker
// span and opens the escalation window so the traces that *caused* the
// pressure are kept once the rung relaxes.
func (t *Tracer) SetRung(level int32, now int64) {
	if t == nil {
		return
	}
	old := t.rung.Swap(level)
	t.refreshOn()
	if level > 0 && level != old {
		t.forcedLeft.Store(forcedBudget)
		t.escalateUntil.Store(now + t.windowNanos)
		t.escalations.Add(1)
		id := t.nextSpan.Add(1)
		t.record(Span{
			Trace: 0, ID: id, Stage: MarkRung, Vertex: NoVertex,
			Start: time.Duration(now - t.startNano), Rung: level, Forced: true,
		})
	}
}

// Rung returns the rung last recorded via SetRung.
func (t *Tracer) Rung() int32 {
	if t == nil {
		return 0
	}
	return t.rung.Load()
}

// Escalations returns how many tail-escalation triggers fired.
func (t *Tracer) Escalations() uint64 {
	if t == nil {
		return 0
	}
	return t.escalations.Load()
}

// OnSpan installs a hook observing every recorded span (stage histograms).
// The hook runs outside the ring lock and must be safe for concurrent use.
func (t *Tracer) OnSpan(fn func(Span)) {
	if t == nil {
		return
	}
	if fn == nil {
		t.onSpan.Store(nil)
		return
	}
	t.onSpan.Store(&fn)
}

func (t *Tracer) record(sp Span) {
	t.recorded.Add(1)
	t.mu.Lock()
	t.seq++
	sp.Seq = t.seq
	t.buf[t.head] = sp
	t.head = (t.head + 1) % len(t.buf)
	if t.n < len(t.buf) {
		t.n++
	}
	t.mu.Unlock()
	if fn := t.onSpan.Load(); fn != nil {
		(*fn)(sp)
	}
}

// Recorded returns the total spans ever recorded (including overwritten).
func (t *Tracer) Recorded() uint64 {
	if t == nil {
		return 0
	}
	return t.recorded.Load()
}

// Len returns the spans currently retained.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// Snapshot returns the ring's contents oldest-first (ascending Seq).
func (t *Tracer) Snapshot() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, t.n)
	start := t.head - t.n
	if start < 0 {
		start += len(t.buf)
	}
	for i := 0; i < t.n; i++ {
		out = append(out, t.buf[(start+i)%len(t.buf)])
	}
	return out
}
