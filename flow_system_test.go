package tornado

import (
	"context"
	"testing"
	"time"

	"tornado/internal/algorithms"
	"tornado/internal/datasets"
	"tornado/internal/stream"
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

// saturate pauses processor 0 of sys and ingests tuples behind its small
// admission gate from a goroutine, returning once producers are parked at
// the gate. The returned function resumes the processor and waits for the
// ingestion to finish.
func saturate(t *testing.T, sys *System, tuples []Tuple) (release func()) {
	t.Helper()
	sys.Engine().PauseProcessor(0)
	done := make(chan struct{})
	go func() {
		defer close(done)
		sys.IngestAll(tuples) // blocks at the gate while proc 0 is paused
	}()
	pollUntil(t, waitFor, func() bool { return sys.FlowStats().Engine.GateSaturated },
		"admission gate never saturated behind a paused processor")
	return func() {
		sys.Engine().ResumeProcessor(0)
		<-done
	}
}

// TestSaturatedGateKeepsBAndFixedPoint drives the system into overload with
// a paused processor and a saturated admission gate. Backpressure parks the
// source and changes nothing else: B stays the configured constant while
// the gate is saturated, and once the pressure clears the main loop reaches
// the exact fixed point.
func TestSaturatedGateKeepsBAndFixedPoint(t *testing.T) {
	tuples := datasets.PowerLawGraph(300, 3, 53)
	sys := newSSSP(t, Options{
		Processors: 2,
		DelayBound: 8,
		Flow: FlowOptions{
			maxPendingInputs: 64,
			inboxHigh:        256,
		},
	})
	release := saturate(t, sys, tuples)
	if got := sys.Engine().Config().DelayBound; got != 8 {
		t.Fatalf("delay bound under a saturated gate = %d, want the configured 8", got)
	}
	release()

	if err := sys.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	if got := sys.Engine().Config().DelayBound; got != 8 {
		t.Fatalf("delay bound after the pressure cleared = %d, want the configured 8", got)
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

// TestSaturatedSystemAnswersExactQueries: a default-priority exact query
// submitted after a second of saturation is admitted, forks at or after the
// journal sequence it was submitted at, and is not answered from the result
// cache the main loop has since moved past. Overload parks producers; it
// never sheds or staleness-widens a query.
func TestSaturatedSystemAnswersExactQueries(t *testing.T) {
	tuples := datasets.PowerLawGraph(300, 3, 53)
	sys := newSSSP(t, Options{
		Processors: 2,
		DelayBound: 8,
		Flow:       FlowOptions{maxPendingInputs: 64},
	})
	sys.IngestAll(tuples[:100])
	if err := sys.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	// Seed the result cache at the present: an answer that goes stale as
	// soon as the saturating ingestion moves the journal on.
	first, err := sys.Query(waitFor)
	if err != nil {
		t.Fatal(err)
	}
	first.Close()

	release := saturate(t, sys, tuples[100:])
	time.Sleep(time.Second)
	seq := sys.Engine().JournalSeq()
	tk, err := sys.Submit(context.Background(), QuerySpec{Timeout: waitFor})
	release()
	if err != nil {
		t.Fatalf("exact default-priority query under saturation: %v", err)
	}
	res, err := tk.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	if res.CacheHit {
		t.Fatalf("exact query served a cached result %d inputs stale", res.Staleness)
	}
	if got := res.ForkSeq(); got < seq {
		t.Fatalf("exact query forked at journal sequence %d, submitted at %d", got, seq)
	}
}

// TestNegativeSampleRateRecordsNoSpanUnderOverload: SpanSampleRate < 0
// disables tracing entirely, so a second of saturation and a query under it
// leave the span ring empty.
func TestNegativeSampleRateRecordsNoSpanUnderOverload(t *testing.T) {
	tuples := datasets.PowerLawGraph(300, 3, 53)
	sys := newSSSP(t, Options{
		Processors:     2,
		DelayBound:     8,
		SpanSampleRate: -1,
		Flow:           FlowOptions{maxPendingInputs: 64},
	})
	release := saturate(t, sys, tuples)
	time.Sleep(time.Second)
	// The query's outcome is not this test's subject: a shed would be an
	// escalation trigger, which must not record a span either.
	tk, err := sys.Submit(context.Background(), QuerySpec{Timeout: waitFor})
	release()
	if err == nil {
		if res, err := tk.Wait(context.Background()); err == nil {
			res.Close()
		}
	}
	if err := sys.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	if n := sys.Spans().Recorded(); n != 0 {
		stages := map[string]int{}
		for _, sp := range sys.Spans().Snapshot() {
			stages[sp.Stage]++
		}
		t.Fatalf("tracer recorded %d spans with tracing disabled (retained by stage: %v)", n, stages)
	}
}

// TestIdleSystemNeverDegradesQueries: once the main loop is at rest after a
// burst through a small admission gate (its master published quiescence and
// nothing arrived since), an exact query forks at the present.
func TestIdleSystemNeverDegradesQueries(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		sys := newSSSP(t, Options{
			Flow: FlowOptions{maxPendingInputs: 64},
		})
		sys.IngestAll(datasets.PowerLawGraph(2000, 3, seed))
		if err := sys.WaitQuiesce(waitFor); err != nil {
			t.Fatal(err)
		}
		res, err := sys.Query(waitFor)
		if err != nil {
			t.Fatalf("seed %d: exact query on an idle system: %v", seed, err)
		}
		if got, want := res.ForkSeq(), sys.Engine().JournalSeq(); got != want {
			t.Fatalf("seed %d: idle system answered at journal sequence %d; want the present %d", seed, got, want)
		}
		res.Close()
		sys.Close()
	}
}

// TestAutoScaleSplitsHotPartition runs the elastic planner end to end: churn
// confined to partition 0 of a four-processor loop (modulo partitioning),
// behind a slowed processor 0 and a small admission gate, keeps the gate
// saturated while partition 0 takes every update — as much as all the
// others together, the default Concentration of 2.0. The planner splits
// partition 0 onto the one spare slot, and the loop then reaches the exact
// fixed point over a graph that spans every slot.
func TestAutoScaleSplitsHotPartition(t *testing.T) {
	const n = 400 // first layer 1..n-1 at distance 1, second layer n+v at 2
	sys := newSSSP(t, Options{
		Processors: 4,
		Flow:       FlowOptions{maxPendingInputs: 64},
		Elastic:    ElasticOptions{MaxProcessors: 5, AutoScale: true},
	})
	var all []Tuple
	var ts stream.Timestamp
	add := func(src, dst VertexID) {
		ts++
		all = append(all, stream.AddEdge(ts, src, dst))
	}
	for v := VertexID(1); v < n; v++ {
		add(0, v)
		add(v, n+v)
	}
	sys.IngestAll(all)
	if err := sys.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}

	// Churn pairs between first-layer vertices of partition 0: the added
	// edge never shortens a path, so its work is the two endpoints' own,
	// and both live on processor 0.
	sys.Engine().SlowProcessor(0, time.Millisecond)
	stop, done := make(chan struct{}), make(chan []Tuple)
	go func() {
		var churn []Tuple
		ts := ts
		for k := 0; ; k++ {
			select {
			case <-stop:
				done <- churn
				return
			default:
			}
			batch := make([]Tuple, 0, 64)
			for i := 0; i < 32; i++ {
				a := VertexID(4 * (1 + (k*32+i)%(n/4-1)))
				b := VertexID(4 * (1 + (k*32+i+7)%(n/4-1)))
				batch = append(batch, stream.AddEdge(ts+1, a, b), stream.RemoveEdge(ts+2, a, b))
				ts += 2
			}
			sys.IngestAll(batch)
			churn = append(churn, batch...)
		}
	}()
	split := func() bool {
		for _, o := range sys.PlanStats().Overrides {
			if o.From == 0 && o.Dest == 4 {
				return true
			}
		}
		return false
	}
	pollUntil(t, waitFor, split, "planner never split the hot partition onto the spare")
	close(stop)
	churn := <-done
	all = append(all, churn...)
	ts = churn[len(churn)-1].Time
	sys.Engine().SlowProcessor(0, 0)
	if ps := sys.PlanStats(); !ps.Active[4] {
		t.Fatalf("spare slot not active after the split: %+v", ps)
	}

	// A tail chain off the second layer, hosted across the slots.
	tail := len(all)
	add(n+4, 2*n)
	for v := VertexID(2 * n); v < 2*n+9; v++ {
		add(v, v+1)
	}
	sys.IngestAll(all[tail:])
	if err := sys.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	want := algorithms.RefSSSP(all, 0, 64)
	seen := 0
	err := sys.ScanApprox(func(id VertexID, state any) error {
		seen++
		if got := state.(*algorithms.SSSPState).Length; got != want[id] {
			t.Fatalf("vertex %d: %d vs %d", id, got, want[id])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != len(want) {
		t.Fatalf("scanned %d vertices, reference has %d", seen, len(want))
	}
}
