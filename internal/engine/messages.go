package engine

import (
	"tornado/internal/lamport"
	"tornado/internal/obs/trace"
	"tornado/internal/stream"
)

// Messages exchanged between the loop's nodes. Processors are nodes 0..P-1,
// the master is node P, the ingester node P+1. Vertex-addressed messages
// (msgInput, msgActivate, msgUpdate, msgPrepare, msgAck, msgAdopt) travel by
// value inside a msgBatch (batch.go); everything else is a control message
// and a transport payload of its own.

// msgInput carries one external stream tuple to the processor owning the
// routed vertex. Token is the tracker token held on the input's behalf; the
// processor releases it after the destination vertex applies the tuple (and
// has acquired its own dirty token).
type msgInput struct {
	Tuple stream.Tuple
	Token int64
	// JSeq is the input-journal sequence number (main loops only; branches
	// leave it zero and set HasJSeq false).
	JSeq    uint64
	HasJSeq bool
	// Ctx is the causal span context of a sampled delta (zero when the delta
	// is untraced). Exported plain data: a wire codec serializes it as-is.
	Ctx trace.Context
}

// msgActivate re-activates a vertex without delivering data: the vertex
// becomes dirty and will commit (re-scattering its current state). Branch
// loops are seeded with activations; crash recovery re-activates snapshot
// vertices.
type msgActivate struct {
	To    stream.VertexID
	Token int64
}

// msgUpdate is a committed update (the COMMIT message of the three-phase
// protocol). It is sent to every effective consumer of the committing
// vertex; HasValue is false for consumers the program did not Emit to (they
// only clear their prepare-list entry). Token is held at Iteration+1 until
// the receiver gathers the message.
type msgUpdate struct {
	From, To  stream.VertexID
	Iteration int64
	Token     int64
	Value     any
	HasValue  bool
	// Cum marks a delta-mode cumulative value (EmitCum): the receiver diffs
	// it against its per-producer record instead of accumulating it as-is.
	Cum bool
	// Ctx propagates the causal span context of the traced input delta that
	// (most recently) dirtied the producer; coalesced-away updates leave a
	// span link in the survivor's context (see processor.coalesceUpdate).
	Ctx trace.Context
}

// msgPrepare asks a consumer for its iteration number (phase two).
type msgPrepare struct {
	From, To stream.VertexID
	Stamp    lamport.Stamp
}

// msgAck answers a prepare with the consumer's iteration number.
type msgAck struct {
	From, To  stream.VertexID
	Iteration int64
}

// msgFrontier announces that all iterations <= Notified have terminated.
// Processors advance their delay-bound cap and release held-back updates.
type msgFrontier struct {
	Notified int64
}

// msgHalt stops a processor (loop converged or engine stopping).
type msgHalt struct{}
