package engine

import (
	"fmt"
	"math/rand"
	"slices"

	"tornado/internal/lamport"
	"tornado/internal/obs/trace"
	"tornado/internal/stream"
)

// edgeFlags is the per-target state held in an outEdge.
type edgeFlags uint8

const (
	edgePresent edgeFlags = 1 << iota // a current target
	edgeAdded                         // added since the last commit (implies edgePresent)
	edgeRemoved                       // removed since the last commit (excludes edgePresent)
	edgeClocked                       // Clock holds the event time of the latest edge operation
	edgeOwesAck                       // the consumer has not answered the PREPARE in flight
	edgeEmitted                       // the Scatter in progress emitted to this target

	// edgeConsumer selects the next commit's effective consumers: the targets
	// plus the recently removed ones (the paper's SSSP emits tombstones to
	// removed targets during the commit that detaches them).
	edgeConsumer = edgePresent | edgeRemoved
)

// outEdge is everything a vertex knows about one target; the records sit in
// one slice ascending by To, so a lookup is a binary search and persisting
// walks them in stored order. A record outlives the edge's removal: a dropped-
// and-retransmitted add can arrive after the remove that supersedes it, and
// gating edge mutations on the event time in Clock keeps topology application
// commutative. The exported fields travel with a migrating vertex.
type outEdge struct {
	To    stream.VertexID
	Clock stream.Timestamp
	// qEpoch and qPos are the coalescing slot: while qEpoch equals the
	// processor's window epoch, this producer's pending msgUpdate for the
	// target sits at outQ[qPos].
	qEpoch uint64
	qPos   int32
	Flags  edgeFlags
}

func (e *outEdge) add() {
	if e.Flags&edgePresent == 0 {
		e.Flags = e.Flags&^edgeRemoved | edgePresent | edgeAdded
	}
}

func (e *outEdge) remove() {
	if e.Flags&edgePresent != 0 {
		e.Flags = e.Flags&^(edgePresent|edgeAdded) | edgeRemoved
	}
}

// inEdge is a vertex's record of one producer, kept ascending by From.
type inEdge struct {
	From stream.VertexID
	// Seen is the highest update iteration gathered from the producer (-1 if
	// none). Retransmission can reorder two updates from one producer; a
	// producer's commit iterations are strictly increasing, so discarding
	// updates at or below Seen restores program order (the paper's Section
	// 5.3 stale-update discard).
	Seen int64
	// Preparing is set between the producer's PREPARE and its COMMIT.
	Preparing bool
}

// vertex is the engine-side state of one component. All access happens on
// the owning processor's goroutine.
type vertex struct {
	id         stream.VertexID
	iter       int64 // τ(x)
	lastCommit int64 // iteration of the last committed update; -1 if none
	state      any   // application state
	slot       int32 // index into the processor's share

	out []outEdge // targets, ascending
	in  []inEdge  // producers, ascending

	// Three-phase protocol state.
	npreparing  int               // in records with Preparing set
	stamp       lamport.Stamp     // non-zero while preparing own update
	nwaiting    int               // out records with edgeOwesAck set
	pendingAcks []stream.VertexID // producers whose PREPARE was deferred

	dirty      bool
	capBlocked bool  // queued on the processor's capQ for a retry when the cap rises
	dirtyToken int64 // iteration of the held dirty token; -1 if none
	activated  bool  // this update was triggered by an explicit activation
	progress   float64
	holdInput  []heldWork // inputs/activations deferred while preparing
	emits      []emission // values emitted by the current Scatter
	// jseqs holds the journal sequences of inputs applied since the last
	// commit; the commit hands them to the input journal.
	jseqs []uint64
	// rng is created by the first Rand call (no shipped graph program draws,
	// and a seeded source is ~5 KB per vertex); rngSeed keeps the sequence
	// what an eagerly seeded source would have produced.
	rng     *rand.Rand
	rngSeed int64

	// Delta mode (cfg.Delta != nil): gathered messages accumulate into
	// pending instead of being folded into state; the next consuming commit
	// hands the accumulated delta to Program.Update. hasPending
	// distinguishes "no pending" from a pending that happens to equal the
	// accumulator identity.
	pending    any
	hasPending bool

	// tctx is the causal span context of the traced delta that most recently
	// dirtied this vertex; the next commit records against it and propagates
	// it to consumers. Batch-aware: a second traced delta arriving before the
	// commit coalesces the first into a span link (see adoptTraceCtx).
	tctx trace.Context
}

type emission struct {
	value any
	cum   bool  // EmitCum: value is cumulative per (producer,consumer), not a delta
	edge  int32 // index of the target's record in the emitter's out
}

type heldWork struct {
	tuple    stream.Tuple
	token    int64
	activate bool
	jseq     uint64
	hasJSeq  bool
	tctx     trace.Context
}

func newVertex(id stream.VertexID, seed int64) *vertex {
	return &vertex{
		id:         id,
		lastCommit: -1,
		dirtyToken: -1,
		rngSeed:    seed ^ int64(uint64(id)*0x9E3779B97F4A7C15),
	}
}

// preparing reports whether the vertex is between phases two and three.
func (v *vertex) preparing() bool { return !v.stamp.IsZero() }

// lower is the lowest iteration the vertex's next commit can land in.
func (v *vertex) lower() int64 {
	return max(v.iter, v.lastCommit+1)
}

// findOut returns the position of target to in out (where it would be
// inserted when absent) and whether it is there. It and findIn run once per
// message: a plain loop over the concrete slice, where the generic search's
// comparison closure is a call per probe.
func (v *vertex) findOut(to stream.VertexID) (int, bool) {
	lo, hi := 0, len(v.out)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if v.out[mid].To < to {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(v.out) && v.out[lo].To == to
}

// findIn is findOut over the producer records.
func (v *vertex) findIn(from stream.VertexID) (int, bool) {
	lo, hi := 0, len(v.in)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if v.in[mid].From < from {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(v.in) && v.in[lo].From == from
}

// edge returns the record of target to, inserting an empty one when absent.
// The pointer is valid until the next insertion.
func (v *vertex) edge(to stream.VertexID) *outEdge {
	i, ok := v.findOut(to)
	if !ok {
		v.out = slices.Insert(v.out, i, outEdge{To: to})
	}
	return &v.out[i]
}

// producer returns the record of producer from, or nil when there is none and
// create is false. The pointer is valid until the next insertion.
func (v *vertex) producer(from stream.VertexID, create bool) *inEdge {
	i, ok := v.findIn(from)
	if !ok {
		if !create {
			return nil
		}
		v.in = slices.Insert(v.in, i, inEdge{From: from, Seen: -1})
	}
	return &v.in[i]
}

// committedBy: producer from has committed and no longer blocks our own update.
func (v *vertex) committedBy(from stream.VertexID) {
	if e := v.producer(from, false); e != nil {
		v.committed(e)
	}
}

// committed is committedBy for a caller that already holds the record.
func (v *vertex) committed(e *inEdge) {
	if e.Preparing {
		e.Preparing = false
		v.npreparing--
	}
}

// vertexContext implements Context for one program callback invocation.
type vertexContext struct {
	p           *processor
	v           *vertex
	allowEmit   bool
	allowTarget bool
}

func (c *vertexContext) ID() stream.VertexID { return c.v.id }
func (c *vertexContext) Iteration() int64    { return c.v.iter }
func (c *vertexContext) Loop() LoopKind      { return c.p.eng.cfg.Kind }
func (c *vertexContext) State() any          { return c.v.state }
func (c *vertexContext) SetState(s any)      { c.v.state = s }

func (c *vertexContext) Rand() *rand.Rand {
	if c.v.rng == nil {
		c.v.rng = rand.New(rand.NewSource(c.v.rngSeed))
	}
	return c.v.rng
}

func (c *vertexContext) Emit(to stream.VertexID, value any) { c.emit(to, value, false, "Emit") }

// EmitCum emits a cumulative per-(producer,consumer) value (delta mode):
// the receiver's Gather is told cum=true and diffs it against its record of
// this producer, which keeps deltas exact under the at-least-once
// transport's reordering and duplication (see package delta).
func (c *vertexContext) EmitCum(to stream.VertexID, value any) { c.emit(to, value, true, "EmitCum") }

func (c *vertexContext) emit(to stream.VertexID, value any, cum bool, call string) {
	v := c.v
	if !c.allowEmit {
		panic(fmt.Sprintf("engine: vertex %d %s outside Scatter/Update", v.id, call))
	}
	i, ok := v.findOut(to)
	if !ok || v.out[i].Flags&edgeConsumer == 0 {
		panic(fmt.Sprintf("engine: vertex %d %s to %d, which is not a target", v.id, call, to))
	}
	v.out[i].Flags |= edgeEmitted
	if c.p != nil { // contexts built without a processor (tests) skip stats
		c.p.eng.stats.Emits.Inc()
	}
	v.emits = append(v.emits, emission{value: value, cum: cum, edge: int32(i)})
}

func (c *vertexContext) AddTarget(to stream.VertexID) {
	if !c.allowTarget {
		panic(fmt.Sprintf("engine: vertex %d AddTarget during Scatter", c.v.id))
	}
	c.v.edge(to).add()
}

func (c *vertexContext) RemoveTarget(to stream.VertexID) {
	if !c.allowTarget {
		panic(fmt.Sprintf("engine: vertex %d RemoveTarget during Scatter", c.v.id))
	}
	if i, ok := c.v.findOut(to); ok {
		c.v.out[i].remove()
	}
}

func (c *vertexContext) Targets() []stream.VertexID        { return c.view(0, edgePresent) }
func (c *vertexContext) AddedTargets() []stream.VertexID   { return c.view(1, edgeAdded) }
func (c *vertexContext) RemovedTargets() []stream.VertexID { return c.view(2, edgeRemoved) }

// view collects the targets whose record has flag want, ascending, into the
// processor's k-th view buffer: the result is overwritten by the next call of
// the same method on this processor, hence valid for the callback only.
func (c *vertexContext) view(k int, want edgeFlags) []stream.VertexID {
	var ids []stream.VertexID
	if c.p != nil {
		ids = c.p.viewBuf[k][:0]
	}
	for i := range c.v.out {
		if c.v.out[i].Flags&want != 0 {
			ids = append(ids, c.v.out[i].To)
		}
	}
	if c.p != nil {
		c.p.viewBuf[k] = ids
	}
	return ids
}

func (c *vertexContext) ReportProgress(val float64) {
	c.v.progress += val
}

func (c *vertexContext) Activated() bool { return c.v.activated }
