// Package engine implements Tornado's iteration model: the session layer of
// the paper's processors (Section 5.1) running the bounded asynchronous
// iteration model of Section 4.
//
// Components (vertices) are partitioned across processor goroutines and
// communicate only by message passing. Every vertex update is assigned an
// iteration number derived from the iteration numbers of its consumers via
// the three-phase Update/Prepare/Commit protocol (Figure 3 of the paper),
// with Lamport clocks ordering concurrent preparations so that deadlock and
// starvation are impossible even while the dependency graph evolves.
//
// Iteration termination is detected with a conservative token frontier: every
// pending obligation (an in-flight update, an unapplied input, a dirty
// vertex) holds a token at the lowest iteration it could still affect; an
// iteration terminates when no tokens at or below it remain. Terminated
// iterations are checkpoints: all of their versions are in the store before
// the master announces them. Delays are bounded by B: updates committed at
// the cap iteration (lastTerminated + B) are held back by receivers until
// the frontier advances, which with B = 1 degenerates to synchronous BSP
// execution (Section 2.3).
package engine

import (
	"math/rand"

	"tornado/internal/stream"
)

// LoopKind distinguishes the main loop from branch loops (Section 3.3).
type LoopKind uint8

const (
	// MainLoop continuously gathers inputs and maintains the approximation.
	MainLoop LoopKind = iota
	// BranchLoop is forked from the main loop and iterates to convergence
	// over a frozen snapshot of the input.
	BranchLoop
)

// String returns the loop kind's name.
func (k LoopKind) String() string {
	if k == MainLoop {
		return "main"
	}
	return "branch"
}

// Context is the engine-provided view a vertex program uses to inspect and
// affect its vertex. A Context, and every target slice it returns, is only
// valid for the duration of the program callback it is passed to.
type Context interface {
	// ID returns the vertex's identifier.
	ID() stream.VertexID

	// Iteration returns the vertex's current iteration number τ(x).
	Iteration() int64

	// Loop reports whether the vertex runs in the main loop or a branch.
	Loop() LoopKind

	// State returns the vertex's application state (nil before Init sets it).
	State() any

	// SetState replaces the vertex's application state.
	SetState(s any)

	// Emit sends a value to a target vertex. Valid only inside Scatter; the
	// target must be a current target or one removed since the last commit
	// (so programs can send tombstone values to retracted edges, as the
	// paper's SSSP does).
	Emit(to stream.VertexID, value any)

	// AddTarget adds a dependency edge from this vertex to `to` (this vertex
	// becomes a producer of `to`). Valid inside Init, OnInput and Gather.
	AddTarget(to stream.VertexID)

	// RemoveTarget retracts the dependency edge to `to`. Valid inside Init,
	// OnInput and Gather.
	RemoveTarget(to stream.VertexID)

	// Targets returns the current targets in ascending order. Like
	// AddedTargets and RemovedTargets it returns a read-only view into an
	// engine buffer, valid until the callback returns: copy it to keep it,
	// and call the method again after AddTarget/RemoveTarget.
	Targets() []stream.VertexID

	// AddedTargets returns targets added since the last commit, ascending.
	AddedTargets() []stream.VertexID

	// RemovedTargets returns targets removed since the last commit,
	// ascending. They may still be Emitted to during the next Scatter.
	RemovedTargets() []stream.VertexID

	// ReportProgress accumulates v into the progress aggregate of the
	// iteration this update commits in. The master hands per-iteration
	// aggregates to the convergence predicate.
	ReportProgress(v float64)

	// Activated reports, during Scatter, whether this commit was triggered
	// by an explicit re-activation (branch seeding, recovery). Programs
	// that suppress redundant emissions MUST re-emit their current values
	// when activated: the activation exists precisely because a consumer
	// may never have received them.
	Activated() bool

	// Rand returns a deterministic per-vertex random source.
	Rand() *rand.Rand
}

// Program defines the behavior of every vertex, mirroring the paper's
// graph-parallel model (Appendix B): init / gather / scatter plus explicit
// dependency maintenance. One Program instance serves all vertices; per-
// vertex data lives in the Context state.
type Program interface {
	// Init is called once when the vertex is created (first message routed
	// to it). It should SetState.
	Init(ctx Context)

	// OnInput delivers an external stream tuple routed to this vertex
	// (KindValue / KindRetractValue; edge tuples are applied by the engine
	// itself through AddTarget/RemoveTarget before OnInput is invoked with
	// them for observation).
	OnInput(ctx Context, tuple stream.Tuple)

	// Gather delivers a committed update from producer src, stamped with the
	// producer's commit iteration.
	Gather(ctx Context, src stream.VertexID, iteration int64, value any)

	// Scatter is called when the vertex commits; it may Emit values to
	// targets. A vertex that Emits nothing and receives nothing afterwards
	// quiesces, which is how loops converge.
	Scatter(ctx Context)
}

// Combiner is an optional Program extension enabling update coalescing:
// when two updates from the same producer to the same consumer are pending
// in one flush window, the engine merges them into a single message whose
// value is Combine(to, old, new) at the newer update's iteration.
//
// Programs that do not implement Combiner get last-writer coalescing (the
// older value is simply dropped). That default is safe for exactly the
// programs the engine already supports: per-producer monotonic discard
// (Section 5.3) means a consumer may observe only the newest of a producer's
// consecutive updates anyway — retransmission reordering drops the older one
// as stale — so coalescing merely realizes an already-permitted schedule.
// Implement Combiner only to preserve information across the merge (e.g. an
// accumulative program summing deltas would return old + new).
type Combiner interface {
	Combine(to stream.VertexID, old, new any) any
}
