package transport

import (
	"testing"
	"time"
)

// TestInboxWatermarkParksSender: a receiver that never drains must cap its
// inbox at the high watermark while the sender parks the rest, and a drain
// must replay every parked frame in order.
func TestInboxWatermarkParksSender(t *testing.T) {
	net := NewNetwork(Options{InboxHigh: 8, InboxLow: 2})
	src := net.Register(1)
	dst := net.Register(2)

	const total = 100
	for i := 0; i < total; i++ {
		src.Send(2, i)
	}
	if got := dst.Pending(); got > 8 {
		t.Fatalf("inbox depth %d exceeds high watermark 8", got)
	}
	if !dst.Stalled() {
		t.Fatal("receiver not stalled at the high watermark")
	}
	if held := src.HeldFrames(); held != total-8 {
		t.Fatalf("sender parked %d frames, want %d", held, total-8)
	}
	if net.Stats.Stalls.Load() == 0 {
		t.Fatal("stall not counted")
	}
	if net.Stats.HeldFrames.Load() == 0 {
		t.Fatal("held frames not counted")
	}

	// Drain everything; parked frames must follow, in send order.
	for i := 0; i < total; i++ {
		env, ok := recvWithin(t, dst, time.Second)
		if !ok {
			t.Fatalf("receiver starved after %d messages", i)
		}
		if env.Payload.(int) != i {
			t.Fatalf("message %d arrived out of order: got %v", i, env.Payload)
		}
	}
	if held := src.HeldFrames(); held != 0 {
		t.Fatalf("%d frames still parked after full drain", held)
	}
	if dst.Stalled() {
		t.Fatal("receiver still stalled after full drain")
	}
}

// recvWithin polls TryRecv so the test never wedges on a flow-control bug.
func recvWithin(t *testing.T, e *Endpoint, d time.Duration) (Envelope, bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if env, ok := e.TryRecv(); ok {
			return env, true
		}
		time.Sleep(100 * time.Microsecond)
	}
	return Envelope{}, false
}

// TestHeldReplayHonoursLateGrant: a credit replay that meets a re-stalled
// receiver parks its remainder again, and a grant arriving between that stall
// check and the re-park finds the replay in progress and returns — so the
// replay must finish the job itself when the receiver is no longer stalled,
// or the frames sit parked with nobody left to release them. A receiver with
// a one-message watermark spins through stall/grant cycles against a sender
// that stops after each burst; every burst must arrive whole and in order.
func TestHeldReplayHonoursLateGrant(t *testing.T) {
	const frames = 64
	start := time.Now()
	for round := 0; time.Since(start) < time.Second; round++ {
		net := NewNetwork(Options{InboxHigh: 1})
		src := net.Register(1)
		dst := net.Register(2)
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < frames; i++ {
				src.Send(2, i)
			}
		}()
		var idleSince time.Time
		for got := 0; got < frames; {
			if env, ok := dst.TryRecv(); ok {
				if env.Payload.(int) != got {
					t.Fatalf("round %d: message %d arrived as %v", round, got, env.Payload)
				}
				got++
				idleSince = time.Time{}
				continue
			}
			select {
			case <-done:
				if idleSince.IsZero() {
					idleSince = time.Now()
				} else if time.Since(idleSince) > 200*time.Millisecond {
					t.Fatalf("round %d: received %d of %d; the sender still parks %d frames for a receiver with stalled=%v",
						round, got, frames, src.HeldFrames(), dst.Stalled())
				}
			default:
			}
		}
		<-done
		net.Close()
	}
}

// TestInboxWatermarkBoundWhileDraining keeps a slow consumer running and
// asserts the inbox never exceeds the watermark plus the documented
// overshoot (one in-flight frame per sender).
func TestInboxWatermarkBoundWhileDraining(t *testing.T) {
	const high = 16
	net := NewNetwork(Options{InboxHigh: high, InboxLow: 4})
	src := net.Register(1)
	dst := net.Register(2)

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2000; i++ {
			src.Send(2, i)
		}
	}()
	peak := 0
	for got := 0; got < 2000; {
		if d := dst.Pending(); d > peak {
			peak = d
		}
		if _, ok := dst.TryRecv(); ok {
			got++
		}
	}
	<-done
	// One sender, unbatched: a single frame may land after the watermark
	// check, so the ceiling is high + 1.
	if peak > high+1 {
		t.Fatalf("inbox peaked at %d, want <= %d", peak, high+1)
	}
}

// TestSendNowBypassesStall: control traffic must reach a stalled receiver.
func TestSendNowBypassesStall(t *testing.T) {
	net := NewNetwork(Options{InboxHigh: 4, InboxLow: 1})
	src := net.Register(1)
	dst := net.Register(2)

	for i := 0; i < 10; i++ {
		src.Send(2, i)
	}
	if !dst.Stalled() {
		t.Fatal("receiver not stalled")
	}
	// At the watermark the urgent frame is shed, not parked and not queued:
	// the control backlog of a starved consumer must stay bounded too.
	before := dst.Pending()
	src.SendNow(2, "heartbeat")
	if got := dst.Pending(); got != before {
		t.Fatalf("urgent frame queued into a watermark-full inbox: %d, want %d", got, before)
	}
	if got := net.Stats.UrgentShed.Load(); got != 1 {
		t.Fatalf("UrgentShed = %d, want 1", got)
	}
	// Below the watermark — even while still stalled — urgent traffic passes.
	if _, ok := dst.TryRecv(); !ok {
		t.Fatal("TryRecv failed on a full inbox")
	}
	if !dst.Stalled() {
		t.Fatal("receiver unstalled above the low watermark")
	}
	before = dst.Pending()
	src.SendNow(2, "heartbeat")
	if got := dst.Pending(); got != before+1 {
		t.Fatalf("SendNow payload parked below the watermark: inbox %d, want %d", got, before+1)
	}
	if got := net.Stats.UrgentShed.Load(); got != 1 {
		t.Fatalf("UrgentShed = %d after a deliverable urgent frame, want still 1", got)
	}
}

// TestBatchedStallAndResume exercises the watermark with batching and the
// wire ledger on: every payload must arrive exactly once despite the parked
// window, the resends, and the deferred-ack machinery.
func TestBatchedStallAndResume(t *testing.T) {
	net, _ := lossyLoop(t, 0, Options{
		InboxHigh:     32,
		InboxLow:      8,
		MaxBatch:      4,
		FlushInterval: time.Millisecond,
		ResendAfter:   5 * time.Millisecond,
	})
	defer net.Close()
	src := net.Register(1)
	dst := net.Register(2)

	const total = 500
	go func() {
		for i := 0; i < total; i++ {
			src.Send(2, i)
		}
		src.Flush()
	}()

	seen := make(map[int]int, total)
	deadline := time.Now().Add(10 * time.Second)
	for len(seen) < total && time.Now().Before(deadline) {
		if env, ok := dst.TryRecv(); ok {
			seen[env.Payload.(int)]++
			continue
		}
		time.Sleep(200 * time.Microsecond)
	}
	if len(seen) != total {
		t.Fatalf("delivered %d distinct payloads, want %d", len(seen), total)
	}
	for k, c := range seen {
		if c != 1 {
			t.Fatalf("payload %d delivered %d times", k, c)
		}
	}
}

// TestCrashReleasesHeldFrames: when the stalled destination crashes, parked
// frames must drain out of sender queues instead of leaking.
func TestCrashReleasesHeldFrames(t *testing.T) {
	net := NewNetwork(Options{InboxHigh: 4, InboxLow: 1})
	src := net.Register(1)
	dst := net.Register(2)

	for i := 0; i < 50; i++ {
		src.Send(2, i)
	}
	if src.HeldFrames() == 0 {
		t.Fatal("test needs parked frames before the crash")
	}
	dst.Crash()
	deadline := time.Now().Add(time.Second)
	for src.HeldFrames() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if held := src.HeldFrames(); held != 0 {
		t.Fatalf("%d frames still parked after destination crash", held)
	}
	if dst.Pending() != 0 {
		t.Fatal("crashed endpoint accepted deliveries")
	}
}

// TestQueueDepthsSnapshot sanity-checks the aggregate flow view.
func TestQueueDepthsSnapshot(t *testing.T) {
	net := NewNetwork(Options{InboxHigh: 4, InboxLow: 1})
	src := net.Register(1)
	net.Register(2)

	for i := 0; i < 10; i++ {
		src.Send(2, i)
	}
	maxDepth, total, stalled, held := net.QueueDepths()
	if maxDepth != 4 || total != 4 {
		t.Fatalf("depths = (%d, %d), want (4, 4)", maxDepth, total)
	}
	if stalled != 1 {
		t.Fatalf("stalled = %d, want 1", stalled)
	}
	if held != 6 {
		t.Fatalf("held = %d, want 6", held)
	}
}

// TestResendLeavesCreditReplayAlone: frames parked for a stalled destination
// wait far past the resend timeout, and none of them is ever retransmitted —
// a parked frame has not reached the wire, so no ledger holds it, and the
// credit replay is its only sender. A resend of a parked frame would skip
// the credit check and pour the parked backlog into the inbox the stall
// protects.
func TestResendLeavesCreditReplayAlone(t *testing.T) {
	const (
		total  = 512
		high   = 64
		resend = 4 * time.Millisecond
	)
	net, _ := lossyLoop(t, 0, Options{InboxHigh: high, InboxLow: 16, ResendAfter: resend})
	defer net.Close()
	src, dst := net.Register(1), net.Register(2)
	// The first window fills the inbox across the wire and withdraws credit;
	// the rest of the stream is parked behind it.
	for i := 0; i < high; i++ {
		src.Send(2, i)
	}
	waitCondition(t, func() bool { return dst.Stalled() }, "the receiver never stalled")
	for i := high; i < total; i++ {
		src.Send(2, i)
	}
	if held := src.HeldFrames(); held != total-high {
		t.Fatalf("HeldFrames = %d; want %d parked behind the watermark", held, total-high)
	}
	// Everything the wire carried is acknowledged: the ledger is empty while
	// the backlog waits, so nothing can be resent however long it waits.
	waitLedgerDrained(t, net)
	before := net.Stats.Resent.Load()
	time.Sleep(10 * resend) // every parked frame outlives the resend timeout
	if n := net.Stats.Resent.Load() - before; n != 0 {
		t.Fatalf("%d frames resent while the backlog was parked", n)
	}

	got := 0
	var batch []Envelope
	for got < total {
		var ok bool
		if batch, ok = dst.RecvBatch(batch); !ok {
			t.Fatal("endpoint closed mid-drain")
		}
		for _, env := range batch {
			if env.Payload.(int) != got {
				t.Fatalf("payload %d arrived at position %d", env.Payload, got)
			}
			got++
		}
	}
}

// TestHeldReplayStopsAtCrash: a crash that lands between two frames of a
// held-frame replay ends the replay. Nothing panics — the replay runs
// unlocked, and Crash drops the parked frames under it — and no frame is
// delivered after the crash. The crash runs inside the replay, after its
// first frame, so the interleaving is the same on every run.
func TestHeldReplayStopsAtCrash(t *testing.T) {
	const parked = 8
	net := NewNetwork(Options{InboxHigh: 4, InboxLow: 2})
	defer net.Close()
	src, dst := net.Register(1), net.Register(2)
	src.Send(2, weighed(4)) // fills the receiver's window: credit withdrawn
	src.Flush()
	if !dst.Stalled() {
		t.Fatal("receiver not stalled at its high watermark")
	}
	for i := 0; i < parked; i++ {
		src.Send(2, i)
		src.Flush()
	}
	if held := src.HeldFrames(); held != parked {
		t.Fatalf("HeldFrames = %d; want %d", held, parked)
	}
	atCrash := -1
	src.replayed = func() {
		if atCrash < 0 {
			src.Crash()
			atCrash = dst.Pending()
		}
	}
	// Draining the window grants credit: the replay runs right here.
	if env, ok := dst.Recv(); !ok || env.Payload != weighed(4) {
		t.Fatalf("Recv = %v, %v; want the window-filling payload", env.Payload, ok)
	}
	if atCrash != 1 {
		t.Fatalf("the replay crashed its sender with %d messages delivered; want 1", atCrash)
	}
	if got := dst.Pending(); got != atCrash {
		t.Fatalf("%d messages pending after the replay; the crash left %d — frames were delivered after it", got, atCrash)
	}
	if env, ok := dst.TryRecv(); !ok || env.Payload != 0 {
		t.Fatalf("first replayed payload = %v, %v; want 0", env.Payload, ok)
	}
	if held := src.HeldFrames(); held != 0 {
		t.Fatalf("crashed sender still parks %d frames", held)
	}
}
