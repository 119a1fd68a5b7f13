package engine

import (
	"testing"
	"time"

	"tornado/internal/datasets"
	"tornado/internal/storage"
	"tornado/internal/stream"
)

// TestSoakEverythingAtOnce is the kitchen-sink integration run: a larger
// evolving graph with removals streamed in waves, concurrent branch queries,
// failure injection, lossy transport, merge-back and a final reshard — ending
// at the exact reference fixed point. Skipped with -short.
func TestSoakEverythingAtOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	tuples := datasets.WithRemovals(datasets.PowerLawGraph(800, 3, 2016), 0.1, 17)
	store := storage.NewMemStore()
	e, err := New(Config{
		Processors:   6,
		DelayBound:   32,
		Kind:         MainLoop,
		LoopID:       storage.MainLoop,
		Store:        store,
		Program:      ssspProg{source: 0},
		ResendAfter:  5 * time.Millisecond,
		Seed:         2016,
		CompactEvery: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.InjectTransportFaults(0.02, 0.02)

	e.Start()
	waves := 5
	per := len(tuples) / waves
	branchID := storage.LoopID(100)
	for w := 0; w < waves; w++ {
		lo, hi := w*per, (w+1)*per
		if w == waves-1 {
			hi = len(tuples)
		}
		e.IngestAll(tuples[lo:hi])
		switch w {
		case 1:
			// Query mid-flight; must be exact for everything ingested so far.
			br, _, err := e.ForkBranch(branchID, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := br.WaitDone(waitFor); err != nil {
				t.Fatal(err)
			}
			checkSSSP(t, br, tuples[:hi])
			br.Stop()
			branchID++
		case 2:
			e.PauseProcessor(3)
			time.Sleep(5 * time.Millisecond)
			e.ResumeProcessor(3)
		case 3:
			e.PauseMaster()
			time.Sleep(5 * time.Millisecond)
			e.ResumeMaster()
		}
	}
	if err := e.WaitSettled(waitFor); err != nil {
		t.Fatal(err)
	}
	checkSSSP(t, e, tuples)

	// Merge a converged query back, then reshard and keep going.
	br, _, err := e.ForkBranch(branchID, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := br.WaitDone(waitFor); err != nil {
		t.Fatal(err)
	}
	if err := e.AdoptBranch(br); err != nil {
		t.Fatal(err)
	}
	br.Stop()
	checkSSSP(t, e, tuples)

	ne, err := Reshard(e, 3, nil, waitFor)
	if err != nil {
		t.Fatal(err)
	}
	defer ne.Stop()
	extra := datasets.PowerLawGraph(50, 2, 404)
	// Shift the extra vertices into a fresh ID range so they extend rather
	// than duplicate the main graph, then connect them to it.
	for i := range extra {
		extra[i].Src += 10000
		extra[i].Dst += 10000
	}
	ne.IngestAll(extra)
	ne.IngestAll(datasets.PowerLawGraph(0, 0, 1)) // no-op guard
	ne.Ingest(tuples[0])                          // duplicate input: idempotent per-source gathers
	if err := ne.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	all := append(append([]stream.Tuple{}, tuples...), extra...)
	all = append(all, tuples[0])
	checkSSSP(t, ne, all)
	checkQuiescent(t, ne)
}

func tail(evs []RecoveryEvent, n int) []RecoveryEvent {
	if len(evs) > n {
		return evs[len(evs)-n:]
	}
	return evs
}

// TestChaosSoakRecovery is the crash-recovery soak: a seeded fault plan
// crashes two processors and the master at fixed iterations while the
// transport drops and duplicates frames, all under the heartbeat supervisor.
// The run must still end at the exact reference fixed point, with every
// injected crash recovered. Skipped with -short.
func TestChaosSoakRecovery(t *testing.T) {
	runChaosSoakRecovery(t, nil)
}

// TestChaosSoakRecoveryWire is the same crash-recovery soak run over the TCP
// loopback wire: every frame is serialized, CRC-framed and crosses a real
// socket, with socket-level chaos (a hard partition and a byte-corruption
// window) layered on top of the crash schedule and the frame-level
// drop/duplicate faults. Convergence to the exact reference fixed point
// proves zero lost and zero duplicated committed updates across reconnects.
func TestChaosSoakRecoveryWire(t *testing.T) {
	runChaosSoakRecovery(t, &WireSpec{})
}

// heartbeatFor and suspectAfterFor tune the failure detector to the
// transport under test. The in-memory plane delivers by function call, so a
// 5ms beat and a tight 6-interval window hold even mid-replay; the wire adds
// per-frame serialization, CRC and socket hops that — on a small or
// race-instrumented box — stretch heartbeat latency far past that window
// during replay storms, livelocking recovery on false suspicions. Real
// deployments tune detection windows to transport latency for exactly this
// reason: beat slower (less serialization load) and judge over a wider
// window (~400ms — times raceStretch when instrumentation slows every
// serialization further) so only genuine silence trips recovery.
func heartbeatFor(wire *WireSpec) time.Duration {
	if wire != nil {
		return 20 * time.Millisecond * raceStretch
	}
	return 5 * time.Millisecond
}

func suspectAfterFor(wire *WireSpec) int {
	if wire != nil {
		return 20
	}
	return 6
}

// soakWait scales the soak deadlines to the transport: the wire pays gob,
// CRC and a socket hop per frame, which on a one-core or race-instrumented
// box stretches an in-memory seconds-long soak into minutes.
func soakWait(wire *WireSpec) time.Duration {
	if wire != nil {
		return 5 * time.Minute
	}
	return waitFor
}

func runChaosSoakRecovery(t *testing.T, wire *WireSpec) {
	if testing.Short() {
		t.Skip("chaos soak skipped in -short mode")
	}
	// The wire variant runs the same chaos schedule on a smaller graph: it
	// tests the socket machinery (codec, reconnect supervision, corruption
	// defense), not scale — the in-memory variant covers scale — and every
	// recovery replays the whole input log through gob+CRC, so the replay
	// storm must fit the detection window even on one instrumented core.
	vertices := 600
	if wire != nil {
		vertices = 300
	}
	tuples := datasets.WithRemovals(datasets.PowerLawGraph(vertices, 3, 77), 0.1, 7)
	e, err := New(Config{
		Processors:        5,
		DelayBound:        16,
		Kind:              MainLoop,
		LoopID:            storage.MainLoop,
		Store:             storage.NewMemStore(),
		Program:           ssspProg{source: 0},
		ResendAfter:       5 * time.Millisecond,
		Seed:              77,
		HeartbeatInterval: heartbeatFor(wire),
		SuspectAfter:      suspectAfterFor(wire),
		RestartBackoff:    time.Millisecond,
		Wire:              wire,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.InjectTransportFaults(0.02, 0.02)
	plan := []Fault{
		{Kind: FaultCrashProcessor, Proc: 1, AtIteration: 1},
	}
	if wire != nil {
		// Socket-level chaos on top: a hard partition window (every frame
		// vanishes; resend ledgers replay on heal) and a corruption window
		// (every hit is a checksum failure and a dropped conn, never a
		// delivery).
		plan = append(plan,
			Fault{Kind: FaultWirePartition, AtIteration: 2, Delay: 30 * time.Millisecond},
			Fault{Kind: FaultWireCorrupt, AtIteration: 3, Rate: 0.05, Delay: 50 * time.Millisecond},
		)
	}
	e.InjectFaultPlan(FaultPlan{Faults: plan})
	e.Start()
	defer e.Stop()

	// Stream in waves with a crash per wave, each recovered before the next
	// strikes: a planned processor crash, a direct processor crash, then the
	// master — all while the transport keeps dropping and duplicating.
	waves := 4
	per := len(tuples) / waves
	for w := 0; w < waves; w++ {
		lo, hi := w*per, (w+1)*per
		if w == waves-1 {
			hi = len(tuples)
		}
		e.IngestAll(tuples[lo:hi])
		switch w {
		case 1:
			waitUntil(t, soakWait(wire), func() bool { return e.StatsSnapshot().Recoveries >= 1 },
				"planned crash of processor 1 never recovered")
			e.CrashProcessor(3)
		case 2:
			waitUntil(t, soakWait(wire), func() bool { return e.StatsSnapshot().Recoveries >= 2 },
				"crash of processor 3 never recovered")
			e.CrashMaster()
		}
	}
	if wire != nil && e.StatsSnapshot().WireChecksumFailures == 0 {
		// The scheduled FaultWireCorrupt window is only 50ms long and races
		// the box's scheduler — on a slow or instrumented machine it can
		// elapse while no frame is in flight (or while the partition window
		// is still eating frames before they can be corrupted). The
		// corruption *defense* must be exercised deterministically: corrupt
		// half of everything — heartbeats flow constantly — until the CRC
		// catches one, then heal and settle as usual.
		e.SetWireCorrupt(0.5)
		waitUntil(t, soakWait(wire), func() bool {
			return e.StatsSnapshot().WireChecksumFailures > 0
		}, "corruption burst never caught by the CRC")
		e.SetWireCorrupt(0)
	}
	if err := e.WaitSettled(soakWait(wire)); err != nil {
		s := e.StatsSnapshot()
		t.Fatalf("%v (gen=%d crashes=%d recoveries=%d events=%d frontier=%d notified=%d log tail: %+v)",
			err, s.Generation, s.Crashes, s.Recoveries, len(e.RecoveryLog()), s.Frontier, s.Notified, tail(e.RecoveryLog(), 6))
	}
	checkSSSP(t, e, tuples)
	s := e.StatsSnapshot()
	if s.Crashes < 3 || s.Recoveries < 3 {
		t.Fatalf("Crashes = %d, Recoveries = %d, want >= 3 each (log: %+v)",
			s.Crashes, s.Recoveries, e.RecoveryLog())
	}
	if wire != nil {
		if s.WireTxFrames == 0 || s.WireRxFrames == 0 {
			t.Fatalf("wire soak moved no wire frames: tx=%d rx=%d", s.WireTxFrames, s.WireRxFrames)
		}
		if s.WireChecksumFailures == 0 {
			t.Fatalf("corruption window produced no checksum failures (tx=%d)", s.WireTxFrames)
		}
		if s.WireReconnects == 0 {
			t.Fatal("dropped connections produced no supervised reconnects")
		}
	}
	checkQuiescent(t, e)
}

// TestChaosSoakSurgeOverload is the overload soak: a 10x ingest surge slams
// into a deliberately slowed processor with the whole backpressure stack on
// (admission gate + inbox watermarks), and a planned crash lands mid-surge.
// The queues must stay bounded while the supervisor recovers, and the run
// must still end at the exact reference fixed point — backpressure may delay
// tuples but must never lose or double-apply one, even across an
// incarnation change. Skipped with -short.
func TestChaosSoakSurgeOverload(t *testing.T) {
	runChaosSoakSurgeOverload(t, nil)
}

// TestChaosSoakSurgeOverloadWire reruns the overload soak with the message
// plane on the TCP loopback wire: the surge, the slow processor, the
// mid-surge crash and the backpressure stack all operate across real
// sockets, and the bounded-queue and exact-fixed-point assertions must hold
// unchanged.
func TestChaosSoakSurgeOverloadWire(t *testing.T) {
	runChaosSoakSurgeOverload(t, &WireSpec{})
}

func runChaosSoakSurgeOverload(t *testing.T, wire *WireSpec) {
	if testing.Short() {
		t.Skip("overload soak skipped in -short mode")
	}
	const (
		procs     = 5
		inboxHigh = 256
		maxBatch  = 16
		// wireQueueLen caps each wire peer connection's outbound frame
		// queue for this test, bounding the socket pipeline so the inbox
		// overshoot assertion below can account for it.
		wireQueueLen = 64
	)
	if wire != nil {
		wire.QueueLen = wireQueueLen
	}
	base := datasets.PowerLawGraph(400, 3, 404)
	// As in the recovery soak, the wire variant surges a smaller graph:
	// the bounded-queue and exactness assertions are size-independent, and
	// the serialized replay after the mid-surge crash must fit the failure
	// detection window on an instrumented one-core box.
	surgeVertices := 4000
	if wire != nil {
		surgeVertices = 1600
	}
	surge := datasets.WithRemovals(datasets.PowerLawGraph(surgeVertices, 3, 405), 0.05, 11)
	// Shift the surge into a fresh ID range so it extends the base graph.
	for i := range surge {
		surge[i].Src += 20000
		surge[i].Dst += 20000
	}
	e, err := New(Config{
		Processors:        procs,
		DelayBound:        16,
		DelayBoundCeiling: 64,
		Kind:              MainLoop,
		LoopID:            storage.MainLoop,
		Store:             storage.NewMemStore(),
		Program:           ssspProg{source: 0},
		ResendAfter:       5 * time.Millisecond,
		Seed:              404,
		MaxBatch:          maxBatch,
		MaxPendingInputs:  512,
		InboxHigh:         inboxHigh,
		InboxLow:          64,
		HeartbeatInterval: heartbeatFor(wire),
		SuspectAfter:      suspectAfterFor(wire),
		RestartBackoff:    time.Millisecond,
		Wire:              wire,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.InjectFaultPlan(FaultPlan{Faults: []Fault{
		{Kind: FaultSlowProcessor, Proc: 2, Delay: 100 * time.Microsecond, AtIteration: 1},
		{Kind: FaultCrashProcessor, Proc: 3, AtIteration: 4},
	}})
	e.Start()
	defer e.Stop()

	// Track the deepest inbox seen across the whole run (incarnations
	// included: FlowSnapshot reads the current one).
	peakInbox := make(chan int, 1)
	stopSampling := make(chan struct{})
	go func() {
		peak := 0
		for {
			select {
			case <-stopSampling:
				peakInbox <- peak
				return
			default:
			}
			if m := e.FlowSnapshot().InboxMax; m > peak {
				peak = m
			}
			time.Sleep(500 * time.Microsecond)
		}
	}()

	// Baseline trickle, then the 10x surge in back-to-back waves with no
	// quiesce barriers — the gate and watermarks are all that stand between
	// the burst and the slow processor 2, while processor 3 crashes mid-way.
	e.IngestAll(base)
	per := len(surge) / 4
	for w := 0; w < 4; w++ {
		lo, hi := w*per, (w+1)*per
		if w == 3 {
			hi = len(surge)
		}
		e.IngestAll(surge[lo:hi])
	}
	waitUntil(t, soakWait(wire), func() bool { return e.StatsSnapshot().Recoveries >= 1 },
		"planned crash of processor 3 never recovered")
	e.SlowProcessor(2, 0) // clear the slowdown so settling is prompt

	if err := e.WaitSettled(soakWait(wire)); err != nil {
		s := e.StatsSnapshot()
		t.Fatalf("%v (gen=%d crashes=%d recoveries=%d frontier=%d notified=%d log tail: %+v)",
			err, s.Generation, s.Crashes, s.Recoveries, s.Frontier, s.Notified, tail(e.RecoveryLog(), 6))
	}
	close(stopSampling)
	peak := <-peakInbox

	// Bounded queues: watermark plus the frame-granularity overshoot (one
	// in-flight MaxBatch frame per sending goroutine), never the ~13k-tuple
	// backlog an unbounded run would buffer.
	margin := 2 * (procs + 2) * maxBatch
	if wire != nil {
		// Credit withdrawal is synchronous shared state for in-memory
		// senders, but frames already serialized into the wire peer queue
		// and kernel socket buffers are beyond recall when the watermark
		// trips: the wire's overshoot legitimately includes that pipeline.
		// The peer queue is capped above so the pipeline stays bounded —
		// the claim is still "watermark + bounded pipeline", never the
		// ~13k-tuple backlog of an unthrottled run.
		margin += wireQueueLen * maxBatch
	}
	if peak > inboxHigh+margin {
		t.Fatalf("inbox peaked at %d during surge, want <= watermark %d + overshoot margin %d",
			peak, inboxHigh, margin)
	}
	fs := e.FlowSnapshot()
	if fs.GateDepth != 0 {
		t.Fatalf("gate depth %d after settling, want 0 (admission credits leaked across recovery)", fs.GateDepth)
	}
	if fs.GatePeak > 512 {
		t.Fatalf("gate peak %d exceeds MaxPendingInputs 512", fs.GatePeak)
	}

	// No tuple lost or double-applied: the throttled, crashed run must land
	// on the same fixed point as an unthrottled reference.
	all := append(append([]stream.Tuple{}, base...), surge...)
	checkSSSP(t, e, all)
	s := e.StatsSnapshot()
	if s.Recoveries < 1 {
		t.Fatalf("Recoveries = %d, want >= 1 (log: %+v)", s.Recoveries, e.RecoveryLog())
	}
	checkQuiescent(t, e)
}
