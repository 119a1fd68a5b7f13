package tornado

import (
	"errors"
	"testing"
	"time"

	"tornado/internal/algorithms"
	"tornado/internal/datasets"
	"tornado/internal/stream"
)

func TestAttachSourceFromSlice(t *testing.T) {
	tuples := datasets.PowerLawGraph(100, 3, 19)
	sys := newSSSP(t, Options{Processors: 3, DelayBound: 32})
	feed, err := sys.AttachSource(stream.FromSlice(tuples), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer feed.Stop()
	if err := feed.Wait(waitFor); err != nil {
		t.Fatal(err)
	}
	if err := sys.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	want := algorithms.RefSSSP(tuples, 0, 64)
	err = sys.ScanApprox(func(id VertexID, state any) error {
		if got := state.(*algorithms.SSSPState).Length; got != want[id] {
			t.Fatalf("vertex %d: %d vs %d", id, got, want[id])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// failingSource yields n tuples, then fails with a non-exhaustion error.
type failingSource struct {
	tuples []stream.Tuple
	pos    int
	err    error
}

func (s *failingSource) Next() (stream.Tuple, error) {
	if s.pos >= len(s.tuples) {
		return stream.Tuple{}, s.err
	}
	t := s.tuples[s.pos]
	s.pos++
	return t, nil
}

// TestFeedSourceErrorSurfaced: a source failure that is not ErrExhausted must
// not masquerade as a clean end of stream — the tuples before the failure
// drain, and the error surfaces through Err, Wait and the stats.
func TestFeedSourceErrorSurfaced(t *testing.T) {
	tuples := datasets.PowerLawGraph(60, 3, 31)
	sys := newSSSP(t, Options{Processors: 2, DelayBound: 32})
	srcErr := errors.New("disk on fire")
	feed, err := sys.AttachSource(&failingSource{tuples: tuples, err: srcErr}, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer feed.Stop()
	werr := feed.Wait(waitFor)
	if !errors.Is(werr, srcErr) {
		t.Fatalf("Wait = %v, want wrapped %v", werr, srcErr)
	}
	if !errors.Is(feed.Err(), srcErr) {
		t.Fatalf("Err = %v, want %v", feed.Err(), srcErr)
	}
	st := feed.Stats()
	if st.SourceErrors != 1 {
		t.Fatalf("SourceErrors = %d, want 1", st.SourceErrors)
	}
	if st.Emitted != int64(len(tuples)) || st.Acked != st.Emitted {
		t.Fatalf("emitted %d acked %d, want both %d (pre-failure tuples must drain)",
			st.Emitted, st.Acked, len(tuples))
	}
	// Everything produced before the failure reached the loop.
	if err := sys.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	want := algorithms.RefSSSP(tuples, 0, 64)
	err = sys.ScanApprox(func(id VertexID, state any) error {
		if got := state.(*algorithms.SSSPState).Length; got != want[id] {
			t.Fatalf("vertex %d: %d vs %d", id, got, want[id])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// throttledProcs is the processor count of throttledFeed's system.
const throttledProcs = 2

// throttledFeed feeds tuples to an SSSP system whose processors are slowed
// and whose admission gate holds maxPending inputs, so the gate fills and the
// pump has to wait at it.
func throttledFeed(t *testing.T, tuples []stream.Tuple, maxPending int) (*System, *Feed) {
	t.Helper()
	sys := newSSSP(t, Options{Processors: throttledProcs, DelayBound: 32,
		Flow: FlowOptions{MaxPendingInputs: maxPending}})
	for i := 0; i < throttledProcs; i++ {
		sys.Engine().SlowProcessor(i, 100*time.Microsecond)
	}
	feed, err := sys.AttachSource(stream.FromSlice(tuples), 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(feed.Stop)
	return sys, feed
}

// checkSSSPFixedPoint lifts the throttle, waits for quiescence and holds the
// main loop's approximation to the sequential reference over tuples.
func checkSSSPFixedPoint(t *testing.T, sys *System, tuples []stream.Tuple) {
	t.Helper()
	for i := 0; i < throttledProcs; i++ {
		sys.Engine().SlowProcessor(i, 0)
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

// TestFeedHandsEachTupleOverOnce: a feed waiting at a full admission gate must
// not hand a tuple to the main loop twice. The retired topology failed such
// waits back to its spout after a tree timeout and replayed them, and the loop
// journalled every replay as a new input.
func TestFeedHandsEachTupleOverOnce(t *testing.T) {
	tuples := datasets.PowerLawGraph(250, 3, 43)
	sys, feed := throttledFeed(t, tuples, 8)
	if err := feed.Wait(waitFor); err != nil {
		t.Fatal(err)
	}
	if got := sys.Engine().JournalSeq(); got != uint64(len(tuples)) {
		t.Fatalf("main loop journalled %d inputs; the source produced %d", got, len(tuples))
	}
	if st := feed.Stats(); st.Emitted != int64(len(tuples)) || st.Acked != st.Emitted {
		t.Fatalf("emitted %d acked %d, want both %d", st.Emitted, st.Acked, len(tuples))
	}
	checkSSSPFixedPoint(t, sys, tuples)
}

// TestFeedBoundedInFlight: with a slow main loop the pump stops pulling while
// it waits at the admission gate, so at most one tuple is ever between the
// source and the loop, and the wait shows up in the gate's counters.
func TestFeedBoundedInFlight(t *testing.T) {
	tuples := datasets.PowerLawGraph(250, 3, 41)
	sys, feed := throttledFeed(t, tuples, 16)
	var samples, worst int64
	for deadline := time.Now().Add(waitFor); ; {
		st := feed.Stats()
		samples++
		worst = max(worst, st.Emitted-st.Acked)
		if st.Acked == int64(len(tuples)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("handed over %d of %d tuples within %v", st.Acked, len(tuples), waitFor)
		}
		time.Sleep(100 * time.Microsecond)
	}
	if worst > 1 {
		t.Fatalf("%d tuples in flight at once across %d samples, want <= 1", worst, samples)
	}
	if err := feed.Wait(waitFor); err != nil {
		t.Fatal(err)
	}
	if fs := sys.FlowStats().Engine; fs.GateWaits == 0 {
		t.Fatalf("the pump never waited at the gate (peak %d of %d)", fs.GatePeak, fs.GateCapacity)
	}
	checkSSSPFixedPoint(t, sys, tuples)
}

func TestAttachSourceFromQueue(t *testing.T) {
	// A live queue: push while the feed runs, query mid-stream, then close.
	tuples := datasets.PowerLawGraph(80, 3, 23)
	half := len(tuples) / 2
	sys := newSSSP(t, Options{Processors: 2, DelayBound: 32})
	q := stream.NewQueue()
	feed, err := sys.AttachSource(q, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer feed.Stop()
	q.Push(tuples[:half]...)
	// Queries work while the feed is live.
	deadline := time.Now().Add(waitFor)
	for sys.Stats().InputMsgs < int64(half) {
		if time.Now().After(deadline) {
			t.Fatal("feed did not deliver the first half")
		}
		time.Sleep(time.Millisecond)
	}
	res, err := sys.Query(waitFor)
	if err != nil {
		t.Fatal(err)
	}
	res.Close()
	q.Push(tuples[half:]...)
	q.Close()
	if err := feed.Wait(waitFor); err != nil {
		t.Fatal(err)
	}
	if err := sys.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	want := algorithms.RefSSSP(tuples, 0, 64)
	err = sys.ScanApprox(func(id VertexID, state any) error {
		if got := state.(*algorithms.SSSPState).Length; got != want[id] {
			t.Fatalf("vertex %d: %d vs %d", id, got, want[id])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
