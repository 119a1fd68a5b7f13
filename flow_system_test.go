package tornado

import (
	"testing"
	"time"

	"tornado/internal/algorithms"
	"tornado/internal/datasets"
)

// pollUntil spins until cond holds or the deadline passes.
func pollUntil(t *testing.T, timeout time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// TestOverloadControllerLadder drives the system into overload with a paused
// processor and a saturated admission gate, and asserts the controller walks
// the degradation ladder up (staleness floor) and — once the pressure clears
// — all the way back down to exact service, with the final fixed point
// unharmed. The ladder moves only the query service: B stays the configured
// constant at every level.
func TestOverloadControllerLadder(t *testing.T) {
	tuples := datasets.PowerLawGraph(300, 3, 53)
	sys := newSSSP(t, Options{
		Processors: 2,
		DelayBound: 8,
		Flow: FlowOptions{
			maxPendingInputs: 64,
			inboxHigh:        256,
			sampleEvery:      time.Millisecond,
		},
	})
	// A paused processor pins its share of admitted inputs: the gate fills
	// to capacity and stays there, a steady 1.0 pressure signal.
	sys.Engine().PauseProcessor(0)

	done := make(chan struct{})
	go func() {
		defer close(done)
		sys.IngestAll(tuples) // blocks at the 64-input gate while proc 0 is paused
	}()

	checkB := func(when string) {
		t.Helper()
		if got := sys.Engine().Config().DelayBound; got != 8 {
			t.Fatalf("delay bound %s = %d, want the configured 8", when, got)
		}
	}
	pollUntil(t, waitFor, func() bool { return sys.FlowStats().OverloadLevel >= 2 },
		"controller never escalated to level 2 under a saturated gate")
	checkB("at level >= 2")
	if got := sys.QueryService().Degraded(); got < 1 {
		t.Fatalf("query service degrade level = %d, want >= 1 while overloaded", got)
	}

	sys.Engine().ResumeProcessor(0)
	<-done
	pollUntil(t, waitFor, func() bool { return sys.FlowStats().OverloadLevel == 0 },
		"controller never relaxed back to level 0 after the pressure cleared")
	checkB("back at level 0")
	if sys.QueryService().Degraded() != 0 {
		t.Fatal("query service still degraded at level 0")
	}

	st := sys.FlowStats()
	if st.OverloadTransitions < 2 {
		t.Fatalf("OverloadTransitions = %d, want >= 2 (up and back down)", st.OverloadTransitions)
	}
	if st.Degraded <= 0 {
		t.Fatal("Degraded duration not accounted")
	}

	if err := sys.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	want := algorithms.RefSSSP(tuples, 0, 64)
	err := sys.ScanApprox(func(id VertexID, state any) error {
		if got := state.(*algorithms.SSSPState).Length; got != want[id] {
			t.Fatalf("vertex %d: %d vs %d", id, got, want[id])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestIdleSystemNeverDegradesQueries: ingesting a graph through a small
// admission gate climbs the overload ladder, whose level decays on its own
// hysteresis long after the burst. Once the main loop is at rest (its master
// published quiescence and nothing arrived since), an exact query must fork
// at the present: no priority shed and no degraded stale answer.
func TestIdleSystemNeverDegradesQueries(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		sys := newSSSP(t, Options{
			Flow: FlowOptions{maxPendingInputs: 64, sampleEvery: time.Millisecond},
		})
		sys.IngestAll(datasets.PowerLawGraph(2000, 3, seed))
		if err := sys.WaitQuiesce(waitFor); err != nil {
			t.Fatal(err)
		}
		res, err := sys.Query(waitFor)
		if err != nil {
			fs := sys.FlowStats()
			t.Fatalf("seed %d: exact query on an idle system: %v (overload level %d, pressure %.3f)",
				seed, err, fs.OverloadLevel, fs.Pressure)
		}
		if got, want := res.ForkSeq(), sys.Engine().JournalSeq(); got != want {
			t.Fatalf("seed %d: idle system answered at journal sequence %d; want the present %d", seed, got, want)
		}
		res.Close()
		sys.Close()
	}
}
