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
	if net.Stats.Stalls.Value() == 0 {
		t.Fatal("stall not counted")
	}
	if net.Stats.HeldFrames.Value() == 0 {
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
	if got := net.Stats.UrgentShed.Value(); got != 1 {
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
	if got := net.Stats.UrgentShed.Value(); got != 1 {
		t.Fatalf("UrgentShed = %d after a deliverable urgent frame, want still 1", got)
	}
}

// TestBatchedStallAndResume exercises the watermark with batching and
// reliability on: every payload must arrive exactly once despite the parked
// window, the resend loop, and the deferred-ack machinery.
func TestBatchedStallAndResume(t *testing.T) {
	net := NewNetwork(Options{
		InboxHigh:     32,
		InboxLow:      8,
		MaxBatch:      4,
		FlushInterval: time.Millisecond,
		ResendAfter:   5 * time.Millisecond,
	})
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
	net.Crash(2)
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
// age past their resend timeout while they wait. When credit returns and
// releaseHeld replays them (the parked queue is then in its hands, not in
// held), the resend loop must not retransmit them too: resends skip the credit
// check, so that would pour the whole parked backlog into the inbox the stall
// protects (TestChaosSoakSurgeOverload saw 600-message inboxes against a
// watermark of 256 this way) — and their clocks restart at the replay, so the
// first tick after it does not resend them either.
func TestResendLeavesCreditReplayAlone(t *testing.T) {
	const (
		total  = 8000
		high   = 64
		resend = 4 * time.Millisecond
	)
	net := NewNetwork(Options{InboxHigh: high, InboxLow: 16, ResendAfter: resend})
	defer net.Close()
	src, dst := net.Register(1), net.Register(2)
	for i := 0; i < total; i++ {
		src.Send(2, i)
	}
	if held := src.HeldFrames(); held != total-high {
		t.Fatalf("HeldFrames = %d; want %d parked behind the watermark", held, total-high)
	}
	time.Sleep(resend + resend/2) // every parked frame's resend clock has run out

	got, peak := 0, 0
	var batch []Envelope
	for got < total {
		if d := dst.Pending(); d > peak {
			peak = d
		}
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
	if peak > high+1 {
		t.Fatalf("inbox peaked at %d messages; the watermark is %d and one sender overshoots by at most a frame", peak, high)
	}
	if n := net.Stats.Resent.Value(); n != 0 {
		t.Fatalf("%d frames resent on a lossless plane: the resend loop raced the credit replay", n)
	}
}
