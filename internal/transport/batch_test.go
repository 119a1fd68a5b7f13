package transport

import (
	"testing"
	"time"
)

// TestBatchedFlushShipsOneFrame: buffered sends ship as a single
// multi-payload frame on Flush, preserving order.
func TestBatchedFlushShipsOneFrame(t *testing.T) {
	n := NewNetwork(Options{MaxBatch: 8, FlushInterval: time.Hour})
	defer n.Close()
	a := n.Register(1)
	b := n.Register(2)
	for i := 0; i < 5; i++ {
		a.Send(2, i)
	}
	if got := a.Buffered(); got != 5 {
		t.Fatalf("Buffered = %d before flush; want 5", got)
	}
	if _, ok := b.TryRecv(); ok {
		t.Fatal("payload delivered before flush")
	}
	a.Flush()
	for i := 0; i < 5; i++ {
		env, ok := b.Recv()
		if !ok || env.Payload != i {
			t.Fatalf("payload %d: got %+v, %v", i, env, ok)
		}
	}
	if sent, payloads := n.Stats.Sent.Value(), n.Stats.Payloads.Value(); sent != 1 || payloads != 5 {
		t.Fatalf("Sent = %d, Payloads = %d; want 1 frame carrying 5 payloads", sent, payloads)
	}
}

// TestBatchFullShipsWithoutFlush: a buffer reaching MaxBatch ships on its
// own.
func TestBatchFullShipsWithoutFlush(t *testing.T) {
	n := NewNetwork(Options{MaxBatch: 4, FlushInterval: time.Hour})
	defer n.Close()
	a := n.Register(1)
	b := n.Register(2)
	for i := 0; i < 4; i++ {
		a.Send(2, i)
	}
	for i := 0; i < 4; i++ {
		env, ok := b.Recv()
		if !ok || env.Payload != i {
			t.Fatalf("payload %d: got %+v, %v", i, env, ok)
		}
	}
	if a.Buffered() != 0 {
		t.Fatalf("Buffered = %d after the buffer filled", a.Buffered())
	}
}

// TestFlushIntervalBackstop: a lone buffered payload ships within the
// background flush interval even if nobody calls Flush.
func TestFlushIntervalBackstop(t *testing.T) {
	n := NewNetwork(Options{MaxBatch: 64, FlushInterval: 2 * time.Millisecond})
	defer n.Close()
	a := n.Register(1)
	b := n.Register(2)
	a.Send(2, "lonely")
	done := make(chan Envelope, 1)
	go func() {
		if env, ok := b.Recv(); ok {
			done <- env
		}
	}()
	select {
	case env := <-done:
		if env.Payload != "lonely" {
			t.Fatalf("got %+v", env)
		}
	case <-time.After(time.Second):
		t.Fatal("buffered payload never shipped by the flush ticker")
	}
}

// TestSendNowBypassesBuffer: SendNow ships immediately, draining the
// destination's buffer first so per-pair order survives.
func TestSendNowBypassesBuffer(t *testing.T) {
	n := NewNetwork(Options{MaxBatch: 64, FlushInterval: time.Hour})
	defer n.Close()
	a := n.Register(1)
	b := n.Register(2)
	a.Send(2, 0)
	a.Send(2, 1)
	a.SendNow(2, 2)
	for i := 0; i < 3; i++ {
		env, ok := b.TryRecv()
		if !ok || env.Payload != i {
			t.Fatalf("payload %d: got %+v, %v", i, env, ok)
		}
	}
}

// TestBatchedOrderUnderDropDupResend: multi-payload frames plus cumulative
// acks must deliver every payload exactly once under heavy drop and
// duplication faults.
func TestBatchedOrderUnderDropDupResend(t *testing.T) {
	n := NewNetwork(Options{
		ResendAfter: 5 * time.Millisecond, MaxBatch: 8,
		FlushInterval: time.Millisecond, DropSeed: 11,
	})
	defer n.Close()
	a := n.Register(1)
	b := n.Register(2)
	n.SetFaults(0.3, 0.3)
	const total = 500
	for i := 0; i < total; i++ {
		a.Send(2, i)
	}
	a.Flush()
	got := make(map[int]int)
	deadline := time.After(10 * time.Second)
	for len(got) < total {
		ch := make(chan Envelope, 1)
		go func() {
			if env, ok := b.Recv(); ok {
				ch <- env
			}
		}()
		select {
		case env := <-ch:
			got[env.Payload.(int)]++
		case <-deadline:
			t.Fatalf("only %d/%d payloads recovered under faults", len(got), total)
		}
	}
	for v, c := range got {
		if c != 1 {
			t.Fatalf("payload %d delivered %d times", v, c)
		}
	}
	n.SetFaults(0, 0)
	waitZeroUnacked(t, a)
}

// TestCumulativeAckCompactsMaps is the bounded-memory regression test: the
// dedup and unacked maps must not grow with the number of frames sent (the
// pre-cumulative-ack implementation kept one seen entry per frame forever).
func TestCumulativeAckCompactsMaps(t *testing.T) {
	n := NewNetwork(Options{
		ResendAfter: 5 * time.Millisecond, MaxBatch: 4,
		FlushInterval: time.Millisecond, DropSeed: 13,
	})
	defer n.Close()
	a := n.Register(1)
	b := n.Register(2)
	n.SetFaults(0.2, 0) // drops force out-of-order arrivals worth deduping
	const total = 4000
	go func() {
		for i := 0; i < total; i++ {
			a.Send(2, i)
		}
		a.Flush()
	}()
	received := 0
	deadline := time.After(15 * time.Second)
	for received < total {
		ch := make(chan struct{}, 1)
		go func() {
			if _, ok := b.Recv(); ok {
				ch <- struct{}{}
			}
		}()
		select {
		case <-ch:
			received++
		case <-deadline:
			t.Fatalf("only %d/%d payloads received", received, total)
		}
	}
	n.SetFaults(0, 0)
	waitZeroUnacked(t, a)
	// Once retransmission fills every gap, the watermark covers all traffic:
	// the receiver retains no dedup entries and the sender no pending frames.
	waitCondition(t, func() bool {
		seen, unacked := n.MapSizes()
		return seen == 0 && unacked == 0
	}, "seen/unacked maps did not compact to zero")
}

// TestLegacySeenCompacts: cumulative compaction also bounds the legacy
// unbatched path (frames arrive in order, so the watermark covers them all
// immediately).
func TestLegacySeenCompacts(t *testing.T) {
	n := NewNetwork(Options{ResendAfter: 5 * time.Millisecond})
	defer n.Close()
	a := n.Register(1)
	b := n.Register(2)
	const total = 1000
	for i := 0; i < total; i++ {
		a.Send(2, i)
	}
	for i := 0; i < total; i++ {
		if _, ok := b.Recv(); !ok {
			t.Fatal("Recv closed early")
		}
	}
	if s := b.SeenSize(); s != 0 {
		t.Fatalf("SeenSize = %d after in-order delivery; want 0 (the map leaked)", s)
	}
	waitZeroUnacked(t, a)
}

// TestDeferredAcksSuppressAckTraffic: in batched mode receivers ack a
// fraction of data frames immediately (the rest ride later watermarks or the
// flush tick), so ack frames stay well below data frames.
func TestDeferredAcksSuppressAckTraffic(t *testing.T) {
	n := NewNetwork(Options{
		ResendAfter: 50 * time.Millisecond, MaxBatch: 8,
		FlushInterval: 2 * time.Millisecond,
	})
	defer n.Close()
	a := n.Register(1)
	b := n.Register(2)
	const frames = 40
	for f := 0; f < frames; f++ {
		for i := 0; i < 8; i++ {
			a.Send(2, f*8+i)
		}
	}
	for i := 0; i < frames*8; i++ {
		if _, ok := b.Recv(); !ok {
			t.Fatal("Recv closed early")
		}
	}
	waitZeroUnacked(t, a)
	sent, acks := n.Stats.Sent.Value(), n.Stats.AckFrames.Value()
	if acks >= sent {
		t.Fatalf("AckFrames = %d >= Sent = %d; deferred acks are not suppressing traffic", acks, sent)
	}
}

// TestBatchedKillRecover: frames buffered or lost while the destination is
// partitioned replay after recovery.
func TestBatchedKillRecover(t *testing.T) {
	n := NewNetwork(Options{
		ResendAfter: 5 * time.Millisecond, MaxBatch: 4,
		FlushInterval: time.Millisecond,
	})
	defer n.Close()
	a := n.Register(1)
	b := n.Register(2)
	n.Kill(2)
	for i := 0; i < 10; i++ {
		a.Send(2, i)
	}
	a.Flush()
	time.Sleep(15 * time.Millisecond)
	if _, ok := b.TryRecv(); ok {
		t.Fatal("partitioned node received a frame")
	}
	n.Recover(2)
	got := make(map[int]bool)
	deadline := time.After(5 * time.Second)
	for len(got) < 10 {
		ch := make(chan Envelope, 1)
		go func() {
			if env, ok := b.Recv(); ok {
				ch <- env
			}
		}()
		select {
		case env := <-ch:
			got[env.Payload.(int)] = true
		case <-deadline:
			t.Fatalf("only %d/10 payloads after recovery", len(got))
		}
	}
	waitZeroUnacked(t, a)
}

// TestCrashDiscardsOutputBuffer: a crash loses buffered payloads, exactly as
// a process crash would.
func TestCrashDiscardsOutputBuffer(t *testing.T) {
	n := NewNetwork(Options{MaxBatch: 64, FlushInterval: time.Hour})
	defer n.Close()
	a := n.Register(1)
	b := n.Register(2)
	a.Send(2, "doomed")
	a.Crash()
	if a.Buffered() != 0 {
		t.Fatalf("Buffered = %d after crash", a.Buffered())
	}
	a.Flush()
	time.Sleep(5 * time.Millisecond)
	if _, ok := b.TryRecv(); ok {
		t.Fatal("crashed endpoint's buffered payload was delivered")
	}
}

// TestCloseFlushesBuffers: graceful shutdown ships what was buffered so
// receivers can drain it.
func TestCloseFlushesBuffers(t *testing.T) {
	n := NewNetwork(Options{MaxBatch: 64, FlushInterval: time.Hour})
	a := n.Register(1)
	b := n.Register(2)
	a.Send(2, "parting")
	a.Close()
	env, ok := b.Recv()
	if !ok || env.Payload != "parting" {
		t.Fatalf("after Close got %+v, %v", env, ok)
	}
	b.Close()
}

// TestRecvBatchDrainsInbox: RecvBatch returns everything queued in order and
// recycles the caller's previous slice as the next inbox.
func TestRecvBatchDrainsInbox(t *testing.T) {
	n := NewNetwork(Options{MaxBatch: 16, FlushInterval: time.Hour})
	defer n.Close()
	a := n.Register(1)
	b := n.Register(2)
	for i := 0; i < 10; i++ {
		a.Send(2, i)
	}
	a.Flush()
	waitCondition(t, func() bool { return b.Pending() == 10 }, "payloads did not arrive")
	batch, ok := b.RecvBatch(nil)
	if !ok || len(batch) != 10 {
		t.Fatalf("RecvBatch = %d msgs, %v; want 10", len(batch), ok)
	}
	for i, env := range batch {
		if env.Payload != i {
			t.Fatalf("batch[%d] = %+v", i, env)
		}
	}
	// Second round reuses the first batch's backing array.
	for i := 0; i < 3; i++ {
		a.Send(2, 100+i)
	}
	a.Flush()
	waitCondition(t, func() bool { return b.Pending() == 3 }, "second round did not arrive")
	batch2, ok := b.RecvBatch(batch)
	if !ok || len(batch2) != 3 {
		t.Fatalf("second RecvBatch = %d msgs, %v; want 3", len(batch2), ok)
	}
	for i, env := range batch2 {
		if env.Payload != 100+i {
			t.Fatalf("batch2[%d] = %+v", i, env)
		}
	}
}

// TestRecvBatchUnblocksOnClose mirrors the Recv close contract.
func TestRecvBatchUnblocksOnClose(t *testing.T) {
	n := NewNetwork(Options{MaxBatch: 16})
	a := n.Register(1)
	done := make(chan bool)
	go func() {
		_, ok := a.RecvBatch(nil)
		done <- ok
	}()
	time.Sleep(5 * time.Millisecond)
	a.Close()
	if ok := <-done; ok {
		t.Fatal("RecvBatch on closed endpoint returned ok=true")
	}
}

func waitCondition(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal(msg)
}

// weighed stands in for a sender-built batch: one payload, that many messages.
type weighed int

func (w weighed) PayloadLen() int { return int(w) }

// TestCountedPayloadsFrameByMessages: MaxBatch, Buffered, Pending and the
// Payloads/Delivered counters all count the messages inside Counted payloads,
// and a payload that would take a buffer past MaxBatch ships what is buffered
// first — no frame exceeds MaxBatch messages.
func TestCountedPayloadsFrameByMessages(t *testing.T) {
	n := NewNetwork(Options{MaxBatch: 8, FlushInterval: time.Hour})
	defer n.Close()
	a, b := n.Register(1), n.Register(2)

	a.Send(2, weighed(5))
	if got := a.Buffered(); got != 5 {
		t.Fatalf("Buffered = %d after a 5-message payload; want 5", got)
	}
	a.Send(2, weighed(5)) // 5+5 > 8: the first ships alone
	if sent, buffered := n.Stats.Sent.Value(), a.Buffered(); sent != 1 || buffered != 5 {
		t.Fatalf("after the second payload: %d frames sent, %d messages buffered; want 1 and 5", sent, buffered)
	}
	a.Send(2, weighed(8)) // a full batch: the buffered one ships, then it does
	if sent, buffered := n.Stats.Sent.Value(), a.Buffered(); sent != 3 || buffered != 0 {
		t.Fatalf("after the full payload: %d frames sent, %d messages buffered; want 3 and 0", sent, buffered)
	}
	a.Send(2, "plain") // everything else weighs one
	a.Flush()

	if got := b.Pending(); got != 19 {
		t.Fatalf("Pending = %d; want 19 messages", got)
	}
	if got := n.Stats.Payloads.Value(); got != 19 {
		t.Fatalf("Stats.Payloads = %d; want 19", got)
	}
	if got := n.Stats.Delivered.Value(); got != 19 {
		t.Fatalf("Stats.Delivered = %d; want 19", got)
	}
	batch, ok := b.RecvBatch(nil)
	if !ok || len(batch) != 4 {
		t.Fatalf("RecvBatch = %d envelopes, %v; want the 4 payloads", len(batch), ok)
	}
	for i, want := range []any{weighed(5), weighed(5), weighed(8), "plain"} {
		if batch[i].Payload != want {
			t.Fatalf("envelope %d = %v; want %v (per-pair order)", i, batch[i].Payload, want)
		}
	}
	if got := b.Pending(); got != 0 {
		t.Fatalf("Pending = %d after the drain; want 0", got)
	}
	if batch, ok = b.PollBatch(batch); !ok || len(batch) != 0 {
		t.Fatalf("PollBatch on an empty inbox = %d envelopes, %v; want none, true", len(batch), ok)
	}
}

// TestCountedPayloadsDriveWatermarks: credit is withdrawn and restored by the
// messages in the inbox, not the envelopes.
func TestCountedPayloadsDriveWatermarks(t *testing.T) {
	n := NewNetwork(Options{InboxHigh: 10, InboxLow: 5})
	defer n.Close()
	a, b := n.Register(1), n.Register(2)

	a.Send(2, weighed(6))
	if b.Stalled() {
		t.Fatal("stalled at 6 of 10 messages")
	}
	a.Send(2, weighed(6))
	if !b.Stalled() {
		t.Fatal("not stalled at 12 messages in 2 envelopes; the watermark must count messages")
	}
	a.Send(2, weighed(1))
	if held := a.HeldFrames(); held != 1 {
		t.Fatalf("HeldFrames = %d with credit withdrawn; want 1", held)
	}
	if _, ok := b.Recv(); !ok {
		t.Fatal("Recv failed")
	}
	if !b.Stalled() { // 6 left > InboxLow
		t.Fatal("credit restored above the low watermark")
	}
	if _, ok := b.Recv(); !ok {
		t.Fatal("Recv failed")
	}
	if b.Stalled() || a.HeldFrames() != 0 {
		t.Fatalf("drained to 0: stalled=%v held=%d; want credit back and the parked frame released", b.Stalled(), a.HeldFrames())
	}
	if env, ok := b.Recv(); !ok || env.Payload != weighed(1) {
		t.Fatalf("parked payload = %v, %v", env.Payload, ok)
	}
}
