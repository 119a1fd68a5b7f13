package engine

import (
	"fmt"
	"strings"
	"testing"

	"tornado/internal/obs"
	"tornado/internal/storage"
	"tornado/internal/stream"
)

// ringTuples builds a directed cycle 0 -> 1 -> ... -> n-1 -> 0. Every vertex
// has exactly one consumer, which makes the protocol-counter reconciliation
// below exact: each committed update sends at least one COMMIT message.
func ringTuples(n int) []stream.Tuple {
	out := make([]stream.Tuple, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, stream.AddEdge(stream.Timestamp(i+1),
			stream.VertexID(i), stream.VertexID((i+1)%n)))
	}
	return out
}

func TestObservabilityReconciliationAndTrace(t *testing.T) {
	hub := obs.NewHub(obs.HubOptions{TraceCapacity: 1 << 16, TraceSampleEvery: 1})
	e, err := New(Config{
		Processors: 3,
		DelayBound: 4,
		Kind:       MainLoop,
		LoopID:     storage.MainLoop,
		Store:      storage.NewMVCCStore(),
		Program:    ssspProg{source: 0},
		Seed:       42,
		Obs:        hub,
	})
	if err != nil {
		t.Fatal(err)
	}
	const watched = stream.VertexID(1)
	e.Watch(watched)
	e.Start()
	e.IngestAll(ringTuples(16))
	if err := e.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}

	// Protocol-counter reconciliation after convergence: over trusted
	// channels every PREPARE is answered by exactly one ACK, and on a graph
	// where every vertex has a consumer each commit sent at least one
	// COMMIT (update) message.
	s := e.StatsSnapshot()
	if s.Commits == 0 || s.UpdateMsgs == 0 {
		t.Fatalf("converged run recorded no work: %+v", s)
	}
	if s.AckMsgs != s.PrepareMsgs {
		t.Errorf("AckMsgs = %d, PrepareMsgs = %d; must match after quiescence", s.AckMsgs, s.PrepareMsgs)
	}
	if s.UpdateMsgs < s.Commits {
		t.Errorf("UpdateMsgs = %d < Commits = %d; every ring commit sends an update", s.UpdateMsgs, s.Commits)
	}
	if s.PendingPrepares != 0 {
		t.Errorf("PendingPrepares = %d after quiescence; want 0", s.PendingPrepares)
	}
	if s.Frontier <= 0 {
		t.Errorf("Frontier = %d after converged run; want > 0", s.Frontier)
	}
	if s.Emits == 0 {
		t.Error("Emits = 0; scatter emissions were not counted")
	}

	// The watched vertex's trace shows the three-phase protocol in order:
	// it received or sent a PREPARE before its first COMMIT, with strictly
	// ascending sequence numbers throughout.
	events := e.Trace(watched)
	if len(events) == 0 {
		t.Fatal("Trace(watched) returned no events")
	}
	var lastSeq uint64
	firstPrepare, firstCommit := -1, -1
	for i, ev := range events {
		if ev.Seq <= lastSeq {
			t.Fatalf("event %d out of order: seq %d after %d", i, ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		switch ev.Kind {
		case obs.EvPrepareSend, obs.EvPrepareRecv:
			if firstPrepare < 0 {
				firstPrepare = i
			}
		case obs.EvCommit:
			if firstCommit < 0 {
				firstCommit = i
			}
		}
	}
	if firstCommit < 0 {
		t.Fatalf("trace has no commit event: %v", events)
	}
	if firstPrepare < 0 || firstPrepare > firstCommit {
		t.Fatalf("prepare phase (idx %d) must precede commit (idx %d): %v", firstPrepare, firstCommit, events)
	}

	// Frontier advances are traced against the NoVertex sentinel.
	if adv := hub.Tracer.QueryVertex(obs.NoVertex); len(adv) == 0 {
		t.Error("no frontier-advance events recorded")
	}

	// The registry exposes the per-loop series, reading the live counters.
	var b strings.Builder
	if err := hub.Registry.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	series := `{kind="main",loop="0",program="engine.ssspProg"}`
	for _, name := range []string{
		"tornado_commits_total", "tornado_update_msgs_total",
		"tornado_frontier_iteration", "tornado_pending_prepares",
	} {
		if !strings.Contains(out, name+series) {
			t.Errorf("exposition missing %s%s:\n%s", name, series, out)
		}
	}
	if !strings.Contains(out, fmt.Sprintf("tornado_commits_total%s %d", series, s.Commits)) {
		t.Errorf("exposed commits do not match StatsSnapshot (%d):\n%s", s.Commits, out)
	}
	if !strings.Contains(out, "tornado_iteration_commits_count"+series) {
		t.Errorf("iteration-commits histogram missing:\n%s", out)
	}

	// The per-loop /statusz section reports the same snapshot.
	status := hub.StatusSnapshot()
	loop, ok := status["loop/0"].(map[string]any)
	if !ok {
		t.Fatalf("statusz missing loop/0 section: %v", status)
	}
	if got := loop["commits"].(int64); got != s.Commits {
		t.Errorf("statusz commits = %d; want %d", got, s.Commits)
	}

	// Stopping the loop unregisters its series and status section, so
	// ephemeral branch loops cannot leak into the exposition.
	e.Stop()
	b.Reset()
	_ = hub.Registry.WritePrometheus(&b)
	if strings.Contains(b.String(), series) {
		t.Errorf("stopped loop's series leaked:\n%s", b.String())
	}
	if _, ok := hub.StatusSnapshot()["loop/0"]; ok {
		t.Error("stopped loop's statusz section leaked")
	}
}

func TestEngineWithoutHubHasNoObsOverhead(t *testing.T) {
	e := newSSSPEngine(t, 2, 4, storage.NewMVCCStore(), storage.MainLoop)
	e.Start()
	defer e.Stop()
	e.IngestAll(ringTuples(8))
	if err := e.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	if got := e.Trace(1); got != nil {
		t.Fatalf("Trace without hub = %v; want nil", got)
	}
	e.Watch(1)   // must be a no-op, not a panic
	e.Unwatch(1) // ditto
	s := e.StatsSnapshot()
	if s.Commits == 0 {
		t.Fatal("engine without hub did not run")
	}
}
