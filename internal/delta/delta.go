// Package delta defines the delta-accumulative execution model (Maiter/REX
// style): instead of gathering full upstream values into state and
// recomputing on every commit, a delta program folds *changes* into a
// per-vertex pending-delta slot merged by a commutative-associative
// accumulator, and only vertices whose accumulated pending is significant
// (priority >= threshold) are activated. On skewed graphs this slashes the
// number of updates to convergence: low-impact dust parks in the pending
// slot instead of triggering commits, and the engine's coalescing path
// merges in-flight deltas with the same accumulator.
//
// Exactness under an at-least-once, reordering transport is the subtle
// part. The engine discards stale gathers per producer (monotonic iteration
// watermark), so a *pure* delta message that loses the race is dropped and
// its mass is gone forever. Programs therefore ship per-(producer,consumer)
// CUMULATIVE values via Context.EmitCum: the consumer's Gather diffs the
// received cumulative value against its own per-producer record to
// synthesize the delta locally. Duplicates diff to zero, reordered sends
// collapse to the newest value, and a resend after loss telescopes the
// missing mass back in — the delta is exact no matter what the wire did.
// Plain Context.Emit is still available for genuinely delta-natured
// messages when the program can tolerate (or dedup) replays itself.
package delta

import (
	"math/rand"

	"tornado/internal/stream"
)

// Context is the engine-provided view of the vertex a program callback is
// operating on. It is the delta-mode twin of the value-mode engine.Context:
// the same restrictions apply (Emit/EmitCum only inside Update, targets
// mutable only inside OnInput/Init).
type Context interface {
	// ID returns the vertex this callback operates on.
	ID() stream.VertexID
	// Iteration returns the vertex's current Lamport iteration.
	Iteration() int64
	// State returns the vertex state set by SetState.
	State() any
	// SetState replaces the vertex state.
	SetState(s any)
	// Emit sends a plain delta value to a target vertex. Deltas shipped
	// this way are accumulated as-is on receipt; the program must be
	// robust to the transport dropping stale duplicates (see package doc).
	Emit(to stream.VertexID, value any)
	// EmitCum sends a cumulative per-(producer,consumer) value: the
	// receiver's Gather is handed cum=true and is expected to diff it
	// against its own record of this producer. This is the exact-delivery
	// workhorse (package doc).
	EmitCum(to stream.VertexID, value any)
	// AddTarget registers an out-edge (valid in Init/OnInput only).
	AddTarget(to stream.VertexID)
	// RemoveTarget retracts an out-edge (valid in Init/OnInput only).
	RemoveTarget(to stream.VertexID)
	// Targets returns the current out-edge set, sorted. The three target
	// slices are read-only views, valid until the callback returns.
	Targets() []stream.VertexID
	// AddedTargets returns targets added since the last commit.
	AddedTargets() []stream.VertexID
	// RemovedTargets returns targets removed since the last commit.
	RemovedTargets() []stream.VertexID
	// ReportProgress feeds the loop's progress metric (Section 4.3).
	ReportProgress(v float64)
	// Activated reports whether this commit was forced by an activation
	// (recovery replay, branch seed, explicit Activate) — programs should
	// re-emit their full cumulative outputs when set.
	Activated() bool
	// Rand returns the vertex's deterministic per-vertex RNG.
	Rand() *rand.Rand
}

// Program is the delta-accumulative counterpart of engine.Program. The
// engine drives it as: OnInput mutates topology/state, Gather turns each
// incoming message into a local delta, Accumulate folds concurrent deltas
// into one pending slot, Priority ranks pendings for selective activation,
// and Update consumes the pending at commit time and emits downstream.
//
// Accumulate must be commutative and associative over the program's delta
// domain, with Identity as its unit: the engine folds deltas in arrival
// order on the owning processor, merges in-flight coalesced updates with
// the same function, and persists unconsumed pendings in checkpoints — all
// three paths must agree on the result regardless of grouping.
type Program interface {
	// Identity returns the accumulator's unit element: Accumulate(Identity(), d) == d.
	// The engine passes it to Update for commits that consume no pending.
	Identity() any
	// Accumulate merges two deltas into one. Must be commutative and
	// associative. When a program mixes Emit and EmitCum, Accumulate may
	// also be asked to fold a delta into a cumulative value (coalescing
	// keeps the older message's cum flag); programs that only EmitCum
	// never see that case.
	Accumulate(a, b any) any
	// Priority scores a pending delta's impact; higher runs first.
	// Pendings scoring below Threshold are parked, not scheduled.
	Priority(ctx Context, pending any) float64
	// Threshold is the base significance threshold. The engine may raise
	// the effective threshold under overload (SetDeltaBoost) and lower it
	// back, rescanning parked pendings — convergence only requires that
	// every above-threshold pending is eventually consumed.
	Threshold() float64
	// Init seeds a new vertex's state (targets may be added here).
	Init(ctx Context)
	// OnInput applies one input tuple (edge/value changes) to the vertex.
	OnInput(ctx Context, t stream.Tuple)
	// Gather converts an incoming message from src into a local delta.
	// cum reports whether the value is cumulative (EmitCum) — if so the
	// program diffs it against its per-producer record inside its state.
	// ok=false means the message changed nothing (duplicate, no-op) and
	// no pending is accumulated.
	Gather(ctx Context, src stream.VertexID, value any, cum bool) (delta any, ok bool)
	// Update folds the pending delta into the vertex state at commit time
	// and emits downstream. pending is Identity() when the commit was
	// triggered without a significant pending (input, activation replay);
	// Update must then still honor Activated/Added/RemovedTargets.
	Update(ctx Context, pending any)
}
