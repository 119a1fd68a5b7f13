package trace

import (
	"sync"
	"testing"
	"time"
)

// stageCtx runs a context through one stage with a strictly later stamp.
func stageCtx(t *Tracer, ctx Context, stage string, at int64) Context {
	return t.Stage(ctx, stage, 1, 7, 0, at)
}

func TestHeadSamplingRate(t *testing.T) {
	tr := NewTracer(64, 0)
	if tr.Enabled() {
		t.Fatal("rate 0 tracer reports enabled")
	}
	if ctx := tr.Begin(tr.Now()); ctx.Traced() {
		t.Fatal("rate 0 tracer sampled a delta")
	}
	tr.SetRate(1)
	sampled := 0
	for i := 0; i < 100; i++ {
		if tr.Begin(tr.Now()).Traced() {
			sampled++
		}
	}
	if sampled != 100 {
		t.Fatalf("rate 1 sampled %d/100", sampled)
	}
	tr.SetRate(0.01)
	sampled = 0
	for i := 0; i < 20000; i++ {
		if tr.Begin(tr.Now()).Traced() {
			sampled++
		}
	}
	// 1% of 20000 = 200 expected; accept a generous band around it.
	if sampled < 50 || sampled > 500 {
		t.Fatalf("rate 0.01 sampled %d/20000, want ~200", sampled)
	}
}

func TestStageChainParentsAndDurations(t *testing.T) {
	tr := NewTracer(64, 1)
	base := tr.Now()
	ctx := tr.Begin(base)
	ctx = stageCtx(tr, ctx, StageGate, base+10)
	ctx = stageCtx(tr, ctx, StageBatch, base+30)
	ctx = stageCtx(tr, ctx, StageInbox, base+60)
	spans := tr.Snapshot()
	if len(spans) != 3 {
		t.Fatalf("recorded %d spans, want 3", len(spans))
	}
	wantDur := []time.Duration{10, 20, 30}
	var parent uint64
	for i, sp := range spans {
		if sp.Trace != ctx.Trace {
			t.Fatalf("span %d trace %d, want %d", i, sp.Trace, ctx.Trace)
		}
		if sp.Parent != parent {
			t.Fatalf("span %d parent %d, want %d", i, sp.Parent, parent)
		}
		if sp.Dur != wantDur[i] {
			t.Fatalf("span %d dur %v, want %v", i, sp.Dur, wantDur[i])
		}
		parent = sp.ID
	}
	// Sub-resolution stages still record non-zero width.
	ctx = stageCtx(tr, ctx, StageProcess, base+60)
	last := tr.Snapshot()[3]
	if last.Dur < 1 {
		t.Fatalf("sub-resolution stage recorded dur %v", last.Dur)
	}
}

func TestCoalesceLinkRidesNextSpan(t *testing.T) {
	tr := NewTracer(64, 1)
	base := tr.Now()
	survivor := tr.Begin(base)
	merged := tr.Begin(base)
	// The merged trace records its terminal coalesce span pointing at the
	// survivor; the survivor's context carries the link into its next span.
	merged.Link = survivor.Trace
	tr.Stage(merged, StageCoalesce, 1, 7, 0, base+5)
	survivor.Link = merged.Trace
	survivor = tr.Stage(survivor, StageCommit, 1, 7, 0, base+9)
	spans := tr.Snapshot()
	if spans[0].Stage != StageCoalesce || spans[0].Link != survivor.Trace {
		t.Fatalf("coalesce span = %+v, want link to survivor %d", spans[0], survivor.Trace)
	}
	if spans[1].Stage != StageCommit || spans[1].Link != merged.Trace {
		t.Fatalf("commit span = %+v, want link to merged %d", spans[1], merged.Trace)
	}
	if survivor.Link != 0 {
		t.Fatal("link not consumed by the recording span")
	}
}

func TestEscalationForcesSampling(t *testing.T) {
	tr := NewTracer(256, 0.0000001) // head sampling effectively never fires
	now := tr.Now()
	if tr.Begin(now).Traced() {
		t.Skip("improbable head sample")
	}
	tr.Escalate(MarkResend, Context{}, now)
	ctx := tr.Begin(now + 1)
	if !ctx.Traced() || !ctx.Forced {
		t.Fatalf("delta inside escalation window not forced: %+v", ctx)
	}
	late := tr.Begin(now + int64(EscalationWindow) + int64(time.Second))
	if late.Traced() {
		t.Fatal("delta after the window still forced")
	}
	if tr.Escalations() != 1 {
		t.Fatalf("escalations = %d, want 1", tr.Escalations())
	}
	spans := tr.Snapshot()
	if len(spans) != 1 || spans[0].Stage != MarkResend || !spans[0].Forced {
		t.Fatalf("marker span missing: %+v", spans)
	}
}

func TestHopCapQuietsTrace(t *testing.T) {
	tr := NewTracer(maxHops*2, 1)
	now := tr.Now()
	ctx := tr.Begin(now)
	for i := 0; i < maxHops+16; i++ {
		now++
		ctx = stageCtx(tr, ctx, StageProcess, now)
	}
	if ctx.Traced() {
		t.Fatal("context still sampled past the hop cap")
	}
	if got := tr.Len(); got != maxHops {
		t.Fatalf("recorded %d spans, want %d", got, maxHops)
	}
}

func TestTracesFilterAndSlowest(t *testing.T) {
	tr := NewTracer(256, 1)
	base := tr.Now()
	mk := func(stages int, step int64) uint64 {
		ctx := tr.Begin(base)
		at := base
		for i := 0; i < stages; i++ {
			at += step
			ctx = stageCtx(tr, ctx, StageProcess, at)
		}
		return ctx.Trace
	}
	slow := mk(4, int64(time.Millisecond)) // wall 4ms
	fast := mk(2, int64(time.Microsecond))
	views := tr.Traces(Filter{})
	if len(views) != 2 {
		t.Fatalf("got %d traces, want 2", len(views))
	}
	if views[0].Trace != fast {
		t.Fatalf("most recent trace = %d, want %d", views[0].Trace, fast)
	}
	only := tr.Traces(Filter{Trace: slow})
	if len(only) != 1 || only[0].Trace != slow || len(only[0].Spans) != 4 {
		t.Fatalf("by-id filter returned %+v", only)
	}
	min := tr.Traces(Filter{MinDur: time.Millisecond})
	if len(min) != 1 || min[0].Trace != slow {
		t.Fatalf("min-duration filter returned %d traces", len(min))
	}
	ranked := tr.Slowest(0, 10)
	if len(ranked) != 2 || ranked[0].Trace != slow {
		t.Fatalf("Slowest ranked %+v", ranked)
	}
	if ranked[0].Wall != 4*time.Millisecond || ranked[0].Busy != 4*time.Millisecond {
		t.Fatalf("wall/busy = %v/%v", ranked[0].Wall, ranked[0].Busy)
	}
}

// TestRingWraparoundNoTornSpans is the satellite guarantee: under concurrent
// writers wrapping a small ring many times over, a reader never observes a
// half-written span. Every writer records spans whose fields are a pure
// function of the span's Trace, so any interleaving of two writes would be
// detected; snapshot order must also be strictly ascending by Seq.
func TestRingWraparoundNoTornSpans(t *testing.T) {
	tr := NewTracer(32, 1) // tiny ring: ~thousands of wraparounds
	const writers = 4
	const perWriter = 8192
	check := func(sp Span) bool {
		return sp.Vertex == sp.Trace*31 &&
			sp.Peer == sp.Trace^0xABCD &&
			sp.Dur == time.Duration(sp.Trace%977+1) &&
			sp.Loop == sp.Trace%13
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				id := tr.nextTrace.Add(1)
				base := int64(1 << 40)
				ctx := Context{Trace: id, Stamp: base, Sampled: true}
				tr.Stage(ctx, StageProcess, id%13, id*31, id^0xABCD, base+int64(id%977+1))
			}
		}()
	}
	var torn, reads int
	var rwg sync.WaitGroup
	rwg.Add(1)
	go func() {
		defer rwg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := tr.Snapshot()
			reads++
			var lastSeq uint64
			for _, sp := range snap {
				if !check(sp) {
					torn++
				}
				if sp.Seq <= lastSeq {
					torn++
				}
				lastSeq = sp.Seq
			}
		}
	}()
	wg.Wait()
	close(stop)
	rwg.Wait()
	if torn != 0 {
		t.Fatalf("observed %d torn/misordered spans across %d snapshots", torn, reads)
	}
	if tr.Len() != 32 {
		t.Fatalf("ring len %d after wraparound, want 32", tr.Len())
	}
	if got := tr.Recorded(); got != writers*perWriter {
		t.Fatalf("recorded %d, want %d", got, writers*perWriter)
	}
}

func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer enabled")
	}
	ctx := tr.Begin(1)
	ctx = tr.Stage(ctx, StageGate, 0, 0, 0, 2)
	tr.Escalate(MarkShed, ctx, 3)
	tr.SetRate(1)
	tr.OnSpan(func(Span) {})
	if tr.Len() != 0 || tr.Snapshot() != nil || tr.Traces(Filter{}) != nil {
		t.Fatal("nil tracer retained state")
	}
}

func TestOnSpanHookObservesStages(t *testing.T) {
	tr := NewTracer(16, 1)
	var mu sync.Mutex
	got := map[string]int{}
	tr.OnSpan(func(sp Span) {
		mu.Lock()
		got[sp.Stage]++
		mu.Unlock()
	})
	now := tr.Now()
	ctx := tr.Begin(now)
	ctx = stageCtx(tr, ctx, StageGate, now+1)
	stageCtx(tr, ctx, StageProcess, now+2)
	mu.Lock()
	defer mu.Unlock()
	if got[StageGate] != 1 || got[StageProcess] != 1 {
		t.Fatalf("hook observed %v", got)
	}
}
