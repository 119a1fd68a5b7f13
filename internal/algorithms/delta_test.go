package algorithms

import (
	"fmt"
	"math"
	"testing"

	"tornado/internal/datasets"
	"tornado/internal/delta"
	"tornado/internal/engine"
	"tornado/internal/storage"
	"tornado/internal/stream"
)

func newDeltaEngine(t *testing.T, dp delta.Program, procs int, bound int64) *engine.Engine {
	t.Helper()
	e, err := engine.New(engine.Config{
		Processors: procs,
		DelayBound: bound,
		Kind:       engine.MainLoop,
		LoopID:     storage.MainLoop,
		Store:      storage.NewMVCCStore(),
		Delta:      dp,
		Seed:       7,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	t.Cleanup(e.Stop)
	return e
}

// TestDeltaSSSPMatchesValueMode runs the same retractable edge stream
// through the value program, the delta program, and the sequential
// reference, and requires all three to land on the identical fixed point.
func TestDeltaSSSPMatchesValueMode(t *testing.T) {
	tuples := datasets.WithRemovals(datasets.PowerLawGraph(150, 3, 5), 0.2, 4)
	for _, bound := range []int64{1, 16, 1 << 40} {
		t.Run(fmt.Sprintf("B=%d", bound), func(t *testing.T) {
			ev := newEngine(t, SSSP{Source: 0}, 4, bound)
			runToQuiesce(t, ev, tuples)
			ed := newDeltaEngine(t, DeltaSSSP{Source: 0}, 4, bound)
			runToQuiesce(t, ed, tuples)
			val, err := Distances(ev)
			if err != nil {
				t.Fatal(err)
			}
			del, err := Distances(ed)
			if err != nil {
				t.Fatal(err)
			}
			want := RefSSSP(tuples, 0, 64)
			for v, w := range want {
				if g, ok := val[v]; ok && g != w {
					t.Fatalf("value mode vertex %d: %d vs reference %d", v, g, w)
				}
				if g, ok := del[v]; ok && g != w {
					t.Fatalf("delta mode vertex %d: %d vs reference %d", v, g, w)
				}
			}
			for v, g := range val {
				if d, ok := del[v]; !ok || d != g {
					t.Fatalf("vertex %d: delta %d (present=%v) vs value %d", v, d, ok, g)
				}
			}
		})
	}
}

// TestDeltaPageRankMatchesReference checks the delta PageRank converges to
// the same epsilon-ball as the value program around the true fixed point.
// How many update messages selective activation saves over value mode at the
// same delay bound is logged, not asserted: it depends on the schedule each
// run happens to get (EXPERIMENTS.md records the ratio with its spread).
func TestDeltaPageRankMatchesReference(t *testing.T) {
	tuples := datasets.PowerLawGraph(120, 3, 11)
	for _, bound := range []int64{1, 1 << 40} {
		t.Run(fmt.Sprintf("B=%d", bound), func(t *testing.T) {
			ev := newEngine(t, PageRank{Epsilon: 1e-7}, 4, bound)
			runToQuiesce(t, ev, tuples)
			ed := newDeltaEngine(t, DeltaPageRank{Epsilon: 1e-7}, 4, bound)
			runToQuiesce(t, ed, tuples)
			got, err := Ranks(ed)
			if err != nil {
				t.Fatal(err)
			}
			want := RefPageRank(tuples, 0.85, 1e-12)
			for v, w := range want {
				g, ok := got[v]
				if !ok {
					t.Fatalf("vertex %d missing from delta ranks", v)
				}
				if math.Abs(g-w) > 1e-3*math.Max(1, w) {
					t.Fatalf("vertex %d: delta rank %.8f vs reference %.8f", v, g, w)
				}
			}
			dv, dd := ev.StatsSnapshot(), ed.StatsSnapshot()
			t.Logf("update messages: delta %d vs value %d (%.2fx)",
				dd.UpdateMsgs, dv.UpdateMsgs, float64(dv.UpdateMsgs)/float64(dd.UpdateMsgs))
		})
	}
}

// TestDeltaPageRankIncrementalEdges replays the evolving-graph scenario:
// quiesce on half the edges, then stream the rest.
func TestDeltaPageRankIncrementalEdges(t *testing.T) {
	tuples := datasets.PowerLawGraph(80, 3, 13)
	half := len(tuples) / 2
	e := newDeltaEngine(t, DeltaPageRank{Epsilon: 1e-7}, 3, 8)
	runToQuiesce(t, e, tuples[:half])
	runToQuiesce(t, e, tuples[half:])
	got, err := Ranks(e)
	if err != nil {
		t.Fatal(err)
	}
	want := RefPageRank(tuples, 0.85, 1e-12)
	for v, w := range want {
		if g, ok := got[v]; ok && math.Abs(g-w) > 1e-3*math.Max(1, w) {
			t.Fatalf("vertex %d: rank %.8f vs reference %.8f", v, g, w)
		}
	}
}

// TestDeltaConnCompMatchesReference requires the exact union-find labels.
func TestDeltaConnCompMatchesReference(t *testing.T) {
	tuples := Symmetrize(datasets.PowerLawGraph(140, 2, 17))
	e := newDeltaEngine(t, DeltaConnComp{}, 4, 16)
	runToQuiesce(t, e, tuples)
	got, err := Labels(e)
	if err != nil {
		t.Fatal(err)
	}
	want := RefConnComp(tuples)
	for v, w := range want {
		if g, ok := got[v]; ok && g != w {
			t.Fatalf("vertex %d: label %d vs reference %d", v, g, w)
		}
	}
}

// TestDeltaNoLostActivation floods single vertices with rapid-fire deltas so
// new deltas constantly land on already-queued vertices (the merge path) and
// requires the final labels to be exact — no accumulated mass may be lost to
// a dropped or double-consumed activation.
func TestDeltaNoLostActivation(t *testing.T) {
	// Fan-out then fan-in: source 1 feeds sixty leaves that all feed hub 0,
	// so the leaves' near-simultaneous emissions pile multiple gathers into
	// the hub's pending within single receive windows. A retraction wave
	// then flips half the leaves back to Unreachable, piling on a second
	// merge storm with opposite-signed candidates.
	var tuples []stream.Tuple
	var ts stream.Timestamp
	for i := stream.VertexID(2); i < 62; i++ {
		ts++
		tuples = append(tuples, stream.AddEdge(ts, 1, i))
		ts++
		tuples = append(tuples, stream.AddEdge(ts, i, 0))
	}
	for i := stream.VertexID(2); i < 32; i++ {
		ts++
		tuples = append(tuples, stream.RemoveEdge(ts, 1, i))
	}
	e := newDeltaEngine(t, DeltaSSSP{Source: 1}, 2, 4)
	e.IngestAll(tuples)
	if err := e.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	got, err := Distances(e)
	if err != nil {
		t.Fatal(err)
	}
	want := RefSSSP(tuples, 1, 64)
	for v, w := range want {
		if g, ok := got[v]; ok && g != w {
			t.Fatalf("vertex %d: %d vs reference %d", v, g, w)
		}
	}
	if s := e.StatsSnapshot(); s.DeltaMerged == 0 {
		t.Fatal("no deltas merged into a pending slot — the test exercised nothing")
	}
}
