package engine

import (
	"testing"

	"tornado/internal/stream"
)

// Context misuse must fail loudly: these tests drive vertexContext directly
// (same package) to pin the guard rails without crashing a live processor.

func newTestCtx(allowEmit, allowTarget bool) *vertexContext {
	v := newVertex(7, 1)
	v.setTargets([]stream.VertexID{9}, nil)
	return &vertexContext{v: v, allowEmit: allowEmit, allowTarget: allowTarget}
}

func expectPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s should panic", what)
		}
	}()
	fn()
}

func TestEmitOutsideScatterPanics(t *testing.T) {
	ctx := newTestCtx(false, true)
	expectPanic(t, "Emit outside Scatter", func() { ctx.Emit(9, 1) })
}

func TestEmitToNonTargetPanics(t *testing.T) {
	ctx := newTestCtx(true, false)
	expectPanic(t, "Emit to non-target", func() { ctx.Emit(42, 1) })
}

func TestEmitToRemovedTargetAllowed(t *testing.T) {
	ctx := newTestCtx(true, true)
	ctx.RemoveTarget(9)
	ctx.allowEmit = true
	ctx.Emit(9, "tombstone") // must not panic
	if len(ctx.v.emits) != 1 {
		t.Fatalf("emits = %d; want 1", len(ctx.v.emits))
	}
}

func TestTargetMutationDuringScatterPanics(t *testing.T) {
	ctx := newTestCtx(true, false)
	expectPanic(t, "AddTarget during Scatter", func() { ctx.AddTarget(1) })
	expectPanic(t, "RemoveTarget during Scatter", func() { ctx.RemoveTarget(9) })
}

func TestTargetBookkeeping(t *testing.T) {
	ctx := newTestCtx(false, true)
	ctx.AddTarget(3)
	ctx.AddTarget(5)
	ctx.AddTarget(3) // duplicate is a no-op
	ctx.RemoveTarget(9)
	if got := ctx.Targets(); len(got) != 2 || got[0] != 3 || got[1] != 5 {
		t.Fatalf("Targets = %v; want [3 5]", got)
	}
	if got := ctx.AddedTargets(); len(got) != 2 {
		t.Fatalf("AddedTargets = %v", got)
	}
	if got := ctx.RemovedTargets(); len(got) != 1 || got[0] != 9 {
		t.Fatalf("RemovedTargets = %v", got)
	}
	// Re-adding a just-removed target cancels the removal.
	ctx.AddTarget(9)
	if got := ctx.RemovedTargets(); len(got) != 0 {
		t.Fatalf("RemovedTargets after re-add = %v", got)
	}
	// Removing a just-added target cancels the addition.
	ctx.RemoveTarget(5)
	for _, id := range ctx.AddedTargets() {
		if id == 5 {
			t.Fatal("AddedTargets still lists a removed target")
		}
	}
}

func TestContextActivatedFlag(t *testing.T) {
	ctx := newTestCtx(true, false)
	if ctx.Activated() {
		t.Fatal("fresh vertex reports Activated")
	}
	ctx.v.activated = true
	if !ctx.Activated() {
		t.Fatal("Activated flag not surfaced")
	}
}

func TestContextStateAndProgress(t *testing.T) {
	ctx := newTestCtx(false, false)
	if ctx.State() != nil {
		t.Fatal("fresh vertex has non-nil state")
	}
	ctx.SetState("hello")
	if ctx.State() != "hello" {
		t.Fatal("SetState did not stick")
	}
	ctx.ReportProgress(1.5)
	ctx.ReportProgress(2.5)
	if ctx.v.progress != 4.0 {
		t.Fatalf("progress = %v; want 4.0", ctx.v.progress)
	}
	if ctx.ID() != 7 {
		t.Fatalf("ID = %d; want 7", ctx.ID())
	}
	if ctx.Rand() == nil {
		t.Fatal("Rand is nil")
	}
}

func TestTrackerSettledAndFrontier(t *testing.T) {
	tr := NewTracker(0)
	if !tr.Settled() {
		t.Fatal("fresh tracker should be settled")
	}
	tr.AcquireFloor(3)
	if tr.Settled() {
		t.Fatal("tracker with a live token cannot be settled")
	}
	if got := tr.Frontier(); got != 3 {
		t.Fatalf("Frontier = %d; want 3", got)
	}
	tr.Release(3)
	if tr.Settled() {
		t.Fatal("quiescent but unannounced tracker must not be settled")
	}
	if _, to, _, ok := tr.Advance(); !ok || to != 3 {
		t.Fatalf("Advance -> %d, %v", to, ok)
	}
	if !tr.Settled() {
		t.Fatal("announced tracker should be settled")
	}
	if got := tr.Frontier(); got != 4 {
		t.Fatalf("Frontier after settle = %d; want 4", got)
	}
}

func TestTrackerBaseIteration(t *testing.T) {
	tr := NewTracker(100)
	if got := tr.AcquireFloor(5); got != 100 {
		t.Fatalf("AcquireFloor(5) with base 100 = %d; want 100", got)
	}
	tr.Release(100)
	if got := tr.Notified(); got != 99 {
		t.Fatalf("Notified = %d; want 99", got)
	}
}

func TestLoopKindString(t *testing.T) {
	if MainLoop.String() != "main" || BranchLoop.String() != "branch" {
		t.Fatal("LoopKind names wrong")
	}
}

func TestRouteVertex(t *testing.T) {
	if routeVertex(stream.AddEdge(1, 3, 4)) != 3 {
		t.Fatal("edge tuples route to the producer endpoint")
	}
	if routeVertex(stream.RemoveEdge(1, 3, 4)) != 3 {
		t.Fatal("removals route to the producer endpoint")
	}
	if routeVertex(stream.Value(1, 9, nil)) != 9 {
		t.Fatal("value tuples route to their destination")
	}
}
