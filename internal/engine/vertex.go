package engine

import (
	"fmt"
	"math/rand"
	"slices"

	"tornado/internal/lamport"
	"tornado/internal/obs/trace"
	"tornado/internal/stream"
)

// vertex is the engine-side state of one component. All access happens on
// the owning processor's goroutine.
type vertex struct {
	id         stream.VertexID
	iter       int64 // τ(x)
	lastCommit int64 // iteration of the last committed update; -1 if none
	state      any   // application state

	targets map[stream.VertexID]struct{} // current consumers (out-edges)
	added   map[stream.VertexID]struct{} // targets added since last commit
	removed map[stream.VertexID]struct{} // targets removed since last commit
	// targetClock holds the event time of the latest edge operation applied
	// per target. Under at-least-once transport a dropped-and-retransmitted
	// add can arrive after the remove that supersedes it; gating edge
	// mutations on event time keeps topology application commutative.
	targetClock map[stream.VertexID]stream.Timestamp
	// gatherSeen holds the highest update iteration gathered per producer.
	// Retransmission can reorder two updates from one producer; a producer's
	// commit iterations are strictly increasing, so discarding updates at or
	// below the last gathered iteration restores program order (the paper's
	// Section 5.3 stale-update discard).
	gatherSeen map[stream.VertexID]int64

	// Three-phase protocol state.
	prepareList map[stream.VertexID]struct{} // producers currently preparing
	stamp       lamport.Stamp                // non-zero while preparing own update
	waiting     map[stream.VertexID]struct{} // consumers owing an ACK
	pendingAcks []stream.VertexID            // producers whose PREPARE was deferred

	dirty      bool
	dirtyToken int64 // iteration of the held dirty token; -1 if none
	activated  bool  // this update was triggered by an explicit activation
	progress   float64
	holdInput  []heldWork // inputs/activations deferred while preparing
	emits      []emission // values emitted by the current Scatter
	// cons is the effective consumer list of the update in flight, built by
	// maybeStart and reused by its commit.
	cons []stream.VertexID
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
	to    stream.VertexID
	value any
	cum   bool // EmitCum: value is cumulative per (producer,consumer), not a delta
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
		id:          id,
		lastCommit:  -1,
		dirtyToken:  -1,
		targets:     make(map[stream.VertexID]struct{}),
		added:       make(map[stream.VertexID]struct{}),
		removed:     make(map[stream.VertexID]struct{}),
		targetClock: make(map[stream.VertexID]stream.Timestamp),
		gatherSeen:  make(map[stream.VertexID]int64),
		prepareList: make(map[stream.VertexID]struct{}),
		waiting:     make(map[stream.VertexID]struct{}),
		rngSeed:     seed ^ int64(uint64(id)*0x9E3779B97F4A7C15),
	}
}

// preparing reports whether the vertex is between phases two and three.
func (v *vertex) preparing() bool { return !v.stamp.IsZero() }

// appendConsumers appends, ascending, the current targets plus the recently
// removed ones (the paper's SSSP emits tombstones to removed targets during
// the commit that detaches them).
func (v *vertex) appendConsumers(out []stream.VertexID) []stream.VertexID {
	for t := range v.targets {
		out = append(out, t)
	}
	for t := range v.removed {
		if _, cur := v.targets[t]; !cur {
			out = append(out, t)
		}
	}
	slices.Sort(out)
	return out
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

func (c *vertexContext) Emit(to stream.VertexID, value any) {
	if !c.allowEmit {
		panic(fmt.Sprintf("engine: vertex %d Emit outside Scatter", c.v.id))
	}
	if _, ok := c.v.targets[to]; !ok {
		if _, wasRemoved := c.v.removed[to]; !wasRemoved {
			panic(fmt.Sprintf("engine: vertex %d Emit to %d, which is not a target", c.v.id, to))
		}
	}
	if c.p != nil { // contexts built without a processor (tests) skip stats
		c.p.eng.stats.Emits.Inc()
	}
	c.v.emits = append(c.v.emits, emission{to: to, value: value})
}

// EmitCum emits a cumulative per-(producer,consumer) value (delta mode):
// the receiver's Gather is told cum=true and diffs it against its record of
// this producer, which keeps deltas exact under the at-least-once
// transport's reordering and duplication (see package delta).
func (c *vertexContext) EmitCum(to stream.VertexID, value any) {
	if !c.allowEmit {
		panic(fmt.Sprintf("engine: vertex %d EmitCum outside Update", c.v.id))
	}
	if _, ok := c.v.targets[to]; !ok {
		if _, wasRemoved := c.v.removed[to]; !wasRemoved {
			panic(fmt.Sprintf("engine: vertex %d EmitCum to %d, which is not a target", c.v.id, to))
		}
	}
	if c.p != nil {
		c.p.eng.stats.Emits.Inc()
	}
	c.v.emits = append(c.v.emits, emission{to: to, value: value, cum: true})
}

func (c *vertexContext) AddTarget(to stream.VertexID) {
	if !c.allowTarget {
		panic(fmt.Sprintf("engine: vertex %d AddTarget during Scatter", c.v.id))
	}
	if _, ok := c.v.targets[to]; ok {
		return
	}
	c.v.targets[to] = struct{}{}
	c.v.added[to] = struct{}{}
	delete(c.v.removed, to)
}

func (c *vertexContext) RemoveTarget(to stream.VertexID) {
	if !c.allowTarget {
		panic(fmt.Sprintf("engine: vertex %d RemoveTarget during Scatter", c.v.id))
	}
	if _, ok := c.v.targets[to]; !ok {
		return
	}
	delete(c.v.targets, to)
	delete(c.v.added, to)
	c.v.removed[to] = struct{}{}
}

func (c *vertexContext) Targets() []stream.VertexID {
	return sortedIDs(c.v.targets)
}

func (c *vertexContext) AddedTargets() []stream.VertexID {
	return sortedIDs(c.v.added)
}

func (c *vertexContext) RemovedTargets() []stream.VertexID {
	return sortedIDs(c.v.removed)
}

func (c *vertexContext) ReportProgress(val float64) {
	c.v.progress += val
}

func (c *vertexContext) Activated() bool { return c.v.activated }

// cloneClock copies a target clock for persistence (nil when empty, to keep
// blobs of clock-less vertices compact).
func cloneClock(in map[stream.VertexID]stream.Timestamp) map[stream.VertexID]stream.Timestamp {
	if len(in) == 0 {
		return nil
	}
	out := make(map[stream.VertexID]stream.Timestamp, len(in))
	for k, v := range in {
		out[k] = v
	}
	return out
}

func sortedIDs(set map[stream.VertexID]struct{}) []stream.VertexID {
	return appendSortedIDs(make([]stream.VertexID, 0, len(set)), set)
}

// appendSortedIDs appends the set's members to out (empty on entry) ascending.
func appendSortedIDs(out []stream.VertexID, set map[stream.VertexID]struct{}) []stream.VertexID {
	for t := range set {
		out = append(out, t)
	}
	slices.Sort(out)
	return out
}
