package trace

import (
	"strings"
	"sync"
	"testing"
)

// TestWatchOverridesSampling: with head sampling off, only a watched vertex
// records protocol markers, and a marker is outside every trace and has no
// width, so trace views and stage histograms (fed by OnSpan, which skips
// Dur 0) never count it.
func TestWatchOverridesSampling(t *testing.T) {
	tr := NewTracer(64, 0)
	var hooked []Span
	tr.OnSpan(func(sp Span) { hooked = append(hooked, sp) })
	if tr.Enabled() || tr.Watched(7) {
		t.Fatal("rate-0 tracer with nothing watched must be off")
	}
	tr.Watch(7)
	tr.Watch(7) // idempotent
	if !tr.Watched(7) || tr.Watched(8) {
		t.Fatalf("Watched(7) = %v, Watched(8) = %v; want true, false", tr.Watched(7), tr.Watched(8))
	}
	tr.Mark(MarkCommit, 0, 7, 0, 3)
	got := tr.Markers(0, 7)
	if len(got) != 1 {
		t.Fatalf("Markers(0, 7) = %v; want one marker", got)
	}
	if m := got[0]; m.Stage != MarkCommit || m.Trace != 0 || m.Dur != 0 || m.Iter != 3 || m.Vertex != 7 {
		t.Fatalf("marker = %+v; want a zero-width commit at iteration 3 outside any trace", m)
	}
	if views := tr.Traces(Filter{}); len(views) != 0 {
		t.Fatalf("marker surfaced as a trace: %v", views)
	}
	if len(hooked) != 1 || hooked[0].Dur != 0 {
		t.Fatalf("OnSpan saw %v; want the one zero-width marker", hooked)
	}
}

func TestMarkersQueryOrdering(t *testing.T) {
	tr := NewTracer(64, 1)
	now := tr.Now()
	tr.Mark(MarkInput, 0, 5, 0, 0)
	tr.Mark(MarkPrepareSend, 0, 5, 6, 2)
	tr.Mark(MarkCommit, 0, 9, 0, 2)                       // other vertex: filtered out
	tr.Mark(MarkCommit, 1, 5, 0, 2)                       // other loop: filtered out
	tr.Stage(tr.Begin(now), StageProcess, 0, 5, 0, now+1) // causal span at the vertex: not a marker
	tr.Mark(MarkAckRecv, 0, 5, 6, 2)
	tr.Mark(MarkCommit, 0, 5, 0, 2)

	got := tr.Markers(0, 5)
	want := []string{MarkInput, MarkPrepareSend, MarkAckRecv, MarkCommit}
	if len(got) != len(want) {
		t.Fatalf("Markers returned %d spans; want %d: %v", len(got), len(want), got)
	}
	var lastSeq uint64
	for i, sp := range got {
		if sp.Stage != want[i] {
			t.Errorf("marker %d stage = %q; want %q", i, sp.Stage, want[i])
		}
		if sp.Seq <= lastSeq {
			t.Errorf("marker %d out of order: seq %d after %d", i, sp.Seq, lastSeq)
		}
		lastSeq = sp.Seq
	}
}

func TestSpanString(t *testing.T) {
	tr := NewTracer(8, 0)
	tr.Watch(5)
	tr.Mark(MarkPrepareSend, 2, 5, 9, 3)
	got := tr.Markers(2, 5)
	if len(got) != 1 {
		t.Fatalf("Markers(2, 5) = %v; want one marker", got)
	}
	s := got[0].String()
	for _, w := range []string{"prepare-send", "loop=2 v5", "peer=9", "iter=3"} {
		if !strings.Contains(s, w) {
			t.Errorf("Span.String() = %q missing %q", s, w)
		}
	}
}

// TestMarkersRingWrap: markers share the span ring, so past its capacity a
// vertex keeps only its newest markers, oldest first.
func TestMarkersRingWrap(t *testing.T) {
	tr := NewTracer(4, 0)
	tr.Watch(1)
	for i := int64(0); i < 10; i++ {
		tr.Mark(MarkCommit, 0, 1, 0, i)
	}
	if got := tr.Len(); got != 4 {
		t.Fatalf("Len = %d; want capacity 4", got)
	}
	if got := tr.Recorded(); got != 10 {
		t.Fatalf("Recorded = %d; want 10", got)
	}
	got := tr.Markers(0, 1)
	if len(got) != 4 {
		t.Fatalf("Markers = %d spans; want 4", len(got))
	}
	for i, sp := range got {
		if want := int64(6 + i); sp.Iter != want {
			t.Fatalf("marker %d iteration = %d; want %d", i, sp.Iter, want)
		}
	}
}

// TestNilTracerMarkersSafe: a nil tracer (an engine without a hub) accepts
// watches and markers and reports none.
func TestNilTracerMarkersSafe(t *testing.T) {
	var tr *Tracer
	tr.Watch(1)
	if tr.Watched(1) {
		t.Fatal("nil tracer watches a vertex")
	}
	tr.Mark(MarkCommit, 0, 1, 0, 2)
	if tr.Recorded() != 0 || tr.Len() != 0 || tr.Markers(0, 1) != nil {
		t.Fatal("nil tracer retained a marker")
	}
}

// TestFrontierSpanCarriesIter: a frontier stage records the covered commit
// iteration in Iter, not in Peer, and the trace view prints it.
func TestFrontierSpanCarriesIter(t *testing.T) {
	tr := NewTracer(64, 1)
	now := tr.Now()
	tr.StageIter(tr.Begin(now), StageFrontier, 0, NoVertex, 0, 41, now+1)
	views := tr.Traces(Filter{})
	if len(views) != 1 || len(views[0].Spans) != 1 {
		t.Fatalf("Traces = %v; want one single-span trace", views)
	}
	if sp := views[0].Spans[0]; sp.Iter != 41 || sp.Peer != 0 {
		t.Fatalf("frontier span Iter = %d, Peer = %d; want 41, 0", sp.Iter, sp.Peer)
	}
	if s := views[0].String(); !strings.Contains(s, "frontier") || !strings.Contains(s, "iter=41") {
		t.Fatalf("trace view missing the frontier iteration:\n%s", s)
	}
}

// TestMarkersConcurrent races watchers, markers and readers (run under
// -race by make race): every mark is counted, and each vertex's retained
// markers stay in ascending Seq order.
func TestMarkersConcurrent(t *testing.T) {
	tr := NewTracer(1024, 0)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(v uint64) {
			defer wg.Done()
			tr.Watch(v)
			for i := int64(0); i < 500; i++ {
				if tr.Watched(v) {
					tr.Mark(MarkCommit, 0, v, 0, i)
				}
				if i%100 == 0 {
					_ = tr.Markers(0, v)
					_ = tr.Snapshot()
					tr.Watch(v + 100)
				}
			}
		}(uint64(w))
	}
	wg.Wait()
	if got := tr.Recorded(); got != 8*500 {
		t.Fatalf("Recorded = %d; want 4000", got)
	}
	for v := uint64(0); v < 8; v++ {
		var last uint64
		var lastIter int64 = -1
		for _, sp := range tr.Markers(0, v) {
			if sp.Seq <= last || sp.Iter <= lastIter {
				t.Fatalf("vertex %d markers out of order", v)
			}
			last, lastIter = sp.Seq, sp.Iter
		}
	}
}
