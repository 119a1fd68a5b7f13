package tornado

import (
	"errors"
	"fmt"
	"log"
	"sync"
	"time"

	"tornado/internal/obs/trace"
	"tornado/internal/stream"
)

// Feed pumps a stream.Source into the main loop: one goroutine pulls each
// tuple, takes its head-sampling decision — the paper's ingesters are spouts
// (Section 5.1), so the spout stage heads the feed's traces — and hands it to
// the admission gate. A full gate blocks that hand-off, so the pump stops
// pulling: a slow main loop pauses the source with at most one tuple in
// flight, and the loop journals tuples in the source's total order.
//
// There is no acking and no replay. Storm's tuple-tree acking does not carry
// over to Tornado (Section 5.3): input reliability is the main loop's own
// input journal plus checkpoints, and a delta applied twice is a different
// input, not a retry.
type Feed struct {
	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{} // closed when the pump exits

	mu      sync.Mutex
	emitted int64
	acked   int64
	ended   bool  // the source was exhausted or failed
	err     error // the source's failure, if it was not exhaustion
}

// FeedStats is a point-in-time snapshot of a feed's delivery counters.
type FeedStats struct {
	// Emitted counts tuples pulled from the source and Acked those handed to
	// the main loop; Emitted − Acked is never more than one.
	Emitted, Acked int64
	// Retried is always 0: the feed never replays.
	Retried int64
	// SourceErrors is 1 once the source failed with an error other than
	// exhaustion (retained in Err); the pump stops pulling at the failure.
	SourceErrors int64
	// SpoutPauses and SpoutPaused are always 0: the pump's only pause is the
	// admission gate's wait, which FlowStats counts.
	SpoutPauses int64
	SpoutPaused time.Duration
}

// AttachSource starts a Feed pulling tuples from src into the main loop.
// Close or exhaust the source, then Wait for full delivery. The second
// argument is ignored (it sized the retired ingestion topology's router).
func (s *System) AttachSource(src stream.Source, _ int) (*Feed, error) {
	f := &Feed{stop: make(chan struct{}), done: make(chan struct{})}
	go f.pump(s, src)
	return f, nil
}

// pump is the feed's one goroutine.
func (f *Feed) pump(sys *System, src stream.Source) {
	defer close(f.done)
	spans := sys.hub.Spans
	for {
		select {
		case <-f.stop:
			return
		default:
		}
		t, err := src.Next()
		if err != nil {
			f.finish(err)
			return
		}
		f.mu.Lock()
		f.emitted++
		f.mu.Unlock()
		// One sampling decision per tuple: a sampled-out context still
		// carries a trace ID, so the engine does not sample it again.
		var ctx trace.Context
		if spans.Enabled() {
			ctx = spans.Begin(spans.Now())
		}
		sys.engine().IngestTraced(t, ctx)
		f.mu.Lock()
		f.acked++
		f.mu.Unlock()
	}
}

// finish records the end of the source's stream. A real source failure, not
// exhaustion, is surfaced: swallowing it would report a truncated stream as
// a clean drain.
func (f *Feed) finish(err error) {
	if errors.Is(err, stream.ErrExhausted) {
		err = nil
	} else {
		log.Printf("tornado: feed source failed: %v", err)
	}
	f.mu.Lock()
	f.ended, f.err = true, err
	f.mu.Unlock()
}

// Err returns the source's failure other than exhaustion, or nil. A
// feed with a non-nil Err delivered everything the source produced before
// failing, but the stream is truncated.
func (f *Feed) Err() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// Stats snapshots the feed's delivery counters.
func (f *Feed) Stats() FeedStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := FeedStats{Emitted: f.emitted, Acked: f.acked}
	if f.err != nil {
		st.SourceErrors = 1
	}
	return st
}

// Wait blocks until the source is exhausted and every tuple it produced has
// been handed to the main loop. A source failure is reported after the
// tuples it did produce have been handed over.
func (f *Feed) Wait(timeout time.Duration) error {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-f.done:
	case <-timer.C:
		return fmt.Errorf("tornado: feed did not drain within %v", timeout)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	switch {
	case f.err != nil:
		return fmt.Errorf("tornado: feed source failed: %w", f.err)
	case !f.ended:
		return errors.New("tornado: feed stopped before its source was exhausted")
	}
	return nil
}

// Stop stops the pump. For blocking sources (such as stream.Queue) close the
// source first, or Stop will wait on the pull in flight.
func (f *Feed) Stop() {
	f.stopOnce.Do(func() { close(f.stop) })
	<-f.done
}
