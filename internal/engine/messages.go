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

// msgRescan asks a delta-mode processor to re-examine parked pending
// deltas after the effective significance threshold was LOWERED (overload
// boost relaxing): pendings that became significant again are enqueued for
// activation. Raising the threshold needs no message — queued entries are
// simply consumed under the old score.
type msgRescan struct {
	Token int64
}

// msgHeartbeat is a liveness beat sent to the supervisor endpoint (node P+2)
// by every processor (Proc = index) and by the master (Proc = -1). A crashed
// endpoint cannot send, so missed beats are how the supervisor detects
// failures.
type msgHeartbeat struct {
	Proc int
}

// Live-migration protocol (elastic.go). The coordinator — the Migrate caller
// itself, receiving on the incarnation's migration endpoint — freezes the
// moving range at its sources, waits for state to ship and install, then
// publishes the next plan epoch (the cutover) and releases everyone.

// msgMigFreeze tells one source processor to freeze the migrating range:
// owned vertices in R stop starting new commits, vertex-addressed messages
// for them are journaled (tokens held), and once none is mid-prepare the
// source ships their state to Dest.
type msgMigFreeze struct {
	Seq        int64
	R          VertexRange
	From       int // owner filter (-1 = any); matches PlanOverride.From
	Dest       int
	NumSources int // how many msgMigState the destination should expect
}

// MigVertex is one vertex's complete in-memory state crossing processors in
// a msgMigState. State and Pending ride as `any` — programs already
// gob-register their state types (RegisterStateType) for checkpoints, so
// the same registrations cover the wire here.
type MigVertex struct {
	ID    stream.VertexID
	State any
	// Out and In are the vertex's edge records (their exported fields on the
	// wire), JSeqs the journal sequences of its applied, uncommitted inputs.
	Out        []outEdge
	In         []inEdge
	JSeqs      []uint64
	Iter       int64
	LastCommit int64
	Progress   float64
	Dirty      bool
	Activated  bool
	Pending    any
	HasPending bool
}

// msgMigState ships one source's frozen vertices to the destination
// processor. The source has released the vertices' dirty tokens; the
// coordinator's floor-0 token pins the frontier until the destination
// re-acquires them at install.
type msgMigState struct {
	Seq        int64
	Source     int
	NumSources int
	Vs         []MigVertex
}

// msgMigShipped reports a source's ship to the coordinator.
type msgMigShipped struct {
	Seq    int64
	Source int
	Count  int
}

// msgMigInstalled reports that the destination installed every source's
// state (dirty tokens re-acquired, nothing activated yet).
type msgMigInstalled struct {
	Seq   int64
	Count int
}

// msgMigCutover tells a source the new plan epoch is published: forward the
// freeze journal to the new owner, drop tombstones, and release the range.
type msgMigCutover struct {
	Seq int64
}

// msgMigActivate tells the destination to start the installed vertices
// (dirty ones into the protocol, parked pendings through the delta
// scheduler). Token is the coordinator's frontier pin, handed over so the
// activation can never be passed by termination detection; the destination
// releases it after scheduling.
type msgMigActivate struct {
	Seq   int64
	Token int64
}
