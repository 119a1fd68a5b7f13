package engine

import (
	"sync/atomic"
	"testing"
	"time"

	"tornado/internal/datasets"
	"tornado/internal/storage"
	"tornado/internal/stream"
)

// newFlowSSSPEngine builds an SSSP engine with the full backpressure stack
// on: ingest admission gate and transport inbox watermarks.
func newFlowSSSPEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	if cfg.Program == nil {
		cfg.Program = ssspProg{source: 0}
	}
	cfg.Kind = MainLoop
	cfg.LoopID = storage.MainLoop
	if cfg.Store == nil {
		cfg.Store = storage.NewMVCCStore()
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestSlowConsumerBoundedInbox is the slow-consumer regression (run under
// -race via make chaos): one processor sleeps in its update hook while the
// rest of the loop runs full speed. The transport inbox must stay at the
// watermark — plus the documented frame-granularity overshoot (one in-flight
// frame per sending goroutine) — instead of absorbing the whole backlog, and
// the throttled run must still reach the exact reference fixed point.
func TestSlowConsumerBoundedInbox(t *testing.T) {
	const (
		procs     = 4
		inboxHigh = 128
		maxBatch  = 8
	)
	tuples := datasets.PowerLawGraph(300, 3, 55)
	e := newFlowSSSPEngine(t, Config{
		Processors:       procs,
		DelayBound:       16,
		Seed:             55,
		MaxBatch:         maxBatch,
		MaxPendingInputs: 256,
		InboxHigh:        inboxHigh,
		InboxLow:         32,
	})
	e.Start()
	defer e.Stop()

	// Processor 1 sleeps in its update hook (commit) — the slow consumer.
	e.SlowProcessor(1, 200*time.Microsecond)

	var peak atomic.Int64
	stopSampling := make(chan struct{})
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		for {
			select {
			case <-stopSampling:
				return
			default:
			}
			if m := int64(e.FlowSnapshot().InboxMax); m > peak.Load() {
				peak.Store(m)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	// Waves without quiesce barriers: the ingest side pushes as hard as the
	// admission gate lets it while processor 1 crawls.
	for w := 0; w < 3; w++ {
		e.IngestAll(tuples)
	}
	e.SlowProcessor(1, 0) // let the run finish promptly
	if err := e.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	close(stopSampling)
	<-samplerDone

	// Overshoot bound: the stall flag is set after the frame that crosses the
	// watermark lands, so each concurrently sending goroutine (processors,
	// master, ingester, plus their flush tickers) may land one more frame of
	// up to MaxBatch envelopes.
	margin := 2 * (procs + 2) * maxBatch
	if p := int(peak.Load()); p > inboxHigh+margin {
		t.Fatalf("inbox peaked at %d, want <= watermark %d + overshoot margin %d", p, inboxHigh, margin)
	}
	fs := e.FlowSnapshot()
	if fs.Stalls == 0 {
		t.Fatal("slow consumer never tripped the inbox watermark; the test lost its teeth")
	}
	if fs.GateDepth != 0 {
		t.Fatalf("gate depth %d after quiesce, want 0 (admission credits leaked)", fs.GateDepth)
	}
	checkSSSP(t, e, tuples)
}

// TestIngestGateBoundsPendingInputs: the admission ledger must never exceed
// its capacity, block the producer when full, and drain back to zero.
func TestIngestGateBoundsPendingInputs(t *testing.T) {
	tuples := datasets.PowerLawGraph(200, 3, 9)
	e := newFlowSSSPEngine(t, Config{
		Processors:       3,
		DelayBound:       16,
		Seed:             9,
		MaxPendingInputs: 64,
	})
	e.Start()
	defer e.Stop()
	e.IngestAll(tuples)
	if err := e.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	fs := e.FlowSnapshot()
	if fs.GatePeak > 64 {
		t.Fatalf("gate peak %d exceeds MaxPendingInputs 64", fs.GatePeak)
	}
	if fs.GateDepth != 0 {
		t.Fatalf("gate depth %d after quiesce, want 0", fs.GateDepth)
	}
	if len(tuples) > 64 && fs.GateWaits == 0 {
		t.Fatal("ingest of a gate-exceeding batch never blocked; admission control is not engaging")
	}
	checkSSSP(t, e, tuples)
}

// TestFaultPlanSlowProcessor: the chaos schedule's slow-consumer fault must
// engage (and clear) through the plan machinery.
func TestFaultPlanSlowProcessor(t *testing.T) {
	tuples := datasets.PowerLawGraph(150, 3, 21)
	e := newFlowSSSPEngine(t, Config{
		Processors: 3,
		DelayBound: 16,
		Seed:       21,
	})
	e.InjectFaultPlan(FaultPlan{Faults: []Fault{
		{Kind: FaultSlowProcessor, Proc: 1, Delay: 100 * time.Microsecond, AtIteration: 1},
	}})
	e.Start()
	defer e.Stop()
	e.IngestAll(tuples)
	waitUntil(t, waitFor, func() bool { return e.slow[1].Load() > 0 },
		"FaultSlowProcessor never fired")
	if err := e.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	e.SlowProcessor(1, 0)
	if e.slow[1].Load() != 0 {
		t.Fatal("SlowProcessor(1, 0) did not clear the injected delay")
	}
	checkSSSP(t, e, tuples)
}

// TestIngestUnblocksOnStop: a producer parked at a saturated admission gate
// must exit when the engine stops instead of deadlocking shutdown.
func TestIngestUnblocksOnStop(t *testing.T) {
	e := newFlowSSSPEngine(t, Config{
		Processors:       1,
		DelayBound:       4,
		Seed:             3,
		MaxPendingInputs: 2,
	})
	e.Start()
	e.PauseProcessor(0) // nothing drains: the gate will saturate
	done := make(chan struct{})
	go func() {
		defer close(done)
		ts := stream.Timestamp(0)
		for i := 0; i < 100; i++ {
			e.Ingest(stream.AddEdge(ts, stream.VertexID(i), stream.VertexID(i+1)))
			ts++
		}
	}()
	select {
	case <-done:
		t.Fatal("100 ingests into a paused single processor never blocked; gate not engaging")
	case <-time.After(50 * time.Millisecond):
	}
	e.Stop()
	select {
	case <-done:
	case <-time.After(waitFor):
		t.Fatal("producer still parked after Stop")
	}
}
