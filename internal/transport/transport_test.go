package transport

import (
	"sync"
	"testing"
	"time"
)

func TestBasicDelivery(t *testing.T) {
	n := NewNetwork(Options{})
	defer n.Close()
	a := n.Register(1)
	b := n.Register(2)
	a.Send(2, "hello")
	env, ok := b.Recv()
	if !ok || env.From != 1 || env.Payload != "hello" {
		t.Fatalf("Recv = %+v, %v", env, ok)
	}
}

func TestOrderPreservedPerSender(t *testing.T) {
	n := NewNetwork(Options{})
	defer n.Close()
	a := n.Register(1)
	b := n.Register(2)
	for i := 0; i < 100; i++ {
		a.Send(2, i)
	}
	for i := 0; i < 100; i++ {
		env, ok := b.Recv()
		if !ok || env.Payload != i {
			t.Fatalf("message %d: got %+v, %v", i, env, ok)
		}
	}
}

func TestRecvUnblocksOnClose(t *testing.T) {
	n := NewNetwork(Options{})
	a := n.Register(1)
	done := make(chan bool)
	go func() {
		_, ok := a.Recv()
		done <- ok
	}()
	time.Sleep(5 * time.Millisecond)
	a.Close()
	if ok := <-done; ok {
		t.Fatal("Recv on closed endpoint returned ok=true")
	}
}

func TestTryRecv(t *testing.T) {
	n := NewNetwork(Options{})
	defer n.Close()
	a := n.Register(1)
	b := n.Register(2)
	if _, ok := b.TryRecv(); ok {
		t.Fatal("TryRecv on empty inbox returned ok")
	}
	a.Send(2, 42)
	env, ok := b.TryRecv()
	if !ok || env.Payload != 42 {
		t.Fatalf("TryRecv = %+v, %v", env, ok)
	}
}

func TestDoubleRegisterPanics(t *testing.T) {
	n := NewNetwork(Options{})
	defer n.Close()
	n.Register(1)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register should panic")
		}
	}()
	n.Register(1)
}

func TestResendRecoversDroppedMessages(t *testing.T) {
	n := NewNetwork(Options{ResendAfter: 5 * time.Millisecond, DropSeed: 1})
	defer n.Close()
	a := n.Register(1)
	b := n.Register(2)
	n.SetFaults(0.5, 0) // half of all data frames are lost in flight
	const total = 200
	for i := 0; i < total; i++ {
		a.Send(2, i)
	}
	got := make(map[int]bool)
	deadline := time.After(5 * time.Second)
	for len(got) < total {
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
			t.Fatalf("only %d/%d messages recovered under 50%% drop", len(got), total)
		}
	}
	n.SetFaults(0, 0)
	waitZeroUnacked(t, a)
}

func TestDuplicatesSuppressed(t *testing.T) {
	n := NewNetwork(Options{ResendAfter: 5 * time.Millisecond, DropSeed: 2})
	defer n.Close()
	a := n.Register(1)
	b := n.Register(2)
	n.SetFaults(0, 1.0) // every frame duplicated in flight
	const total = 50
	for i := 0; i < total; i++ {
		a.Send(2, i)
	}
	for i := 0; i < total; i++ {
		env, ok := b.Recv()
		if !ok || env.Payload != i {
			t.Fatalf("message %d: got %+v, %v", i, env, ok)
		}
	}
	time.Sleep(20 * time.Millisecond)
	if p := b.Pending(); p != 0 {
		t.Fatalf("%d duplicate messages leaked into inbox", p)
	}
}

func TestKillAndRecover(t *testing.T) {
	n := NewNetwork(Options{ResendAfter: 5 * time.Millisecond})
	defer n.Close()
	a := n.Register(1)
	b := n.Register(2)

	n.Kill(2)
	a.Send(2, "while-down")
	time.Sleep(15 * time.Millisecond)
	if _, ok := b.TryRecv(); ok {
		t.Fatal("dead node received a message")
	}

	n.Recover(2)
	env, ok := b.Recv() // retransmission must arrive
	if !ok || env.Payload != "while-down" {
		t.Fatalf("after recovery got %+v, %v", env, ok)
	}
	waitZeroUnacked(t, a)
}

func TestDeadNodeCannotSend(t *testing.T) {
	n := NewNetwork(Options{})
	defer n.Close()
	a := n.Register(1)
	b := n.Register(2)
	n.Kill(1)
	a.Send(2, "ghost")
	time.Sleep(5 * time.Millisecond)
	if _, ok := b.TryRecv(); ok {
		t.Fatal("killed node's send was delivered")
	}
}

func TestCountersTrackTraffic(t *testing.T) {
	n := NewNetwork(Options{})
	defer n.Close()
	a := n.Register(1)
	n.Register(2).Close() // closed endpoints drop deliveries
	c := n.Register(3)
	a.Send(3, 1)
	a.Send(3, 2)
	c.Recv()
	c.Recv()
	if n.Stats.Sent.Load() != 2 {
		t.Fatalf("Sent = %d; want 2", n.Stats.Sent.Load())
	}
	if n.Stats.Delivered.Load() != 2 {
		t.Fatalf("Delivered = %d; want 2", n.Stats.Delivered.Load())
	}
}

func TestSharedStatsSurviveRebuild(t *testing.T) {
	st := &Stats{}
	n1 := NewNetwork(Options{Stats: st})
	a := n1.Register(1)
	n1.Register(2)
	a.Send(2, "x")
	n1.Abort()
	n2 := NewNetwork(Options{Stats: st})
	defer n2.Close()
	b := n2.Register(1)
	n2.Register(2)
	b.Send(2, "y")
	if st.Sent.Load() != 2 {
		t.Fatalf("shared Sent = %d across rebuild; want 2", st.Sent.Load())
	}
}

func TestResendBackoffCapDeadLetters(t *testing.T) {
	n := NewNetwork(Options{ResendAfter: 2 * time.Millisecond, MaxResends: 3, DropSeed: 7})
	defer n.Close()
	a := n.Register(1)
	n.Register(2).Crash() // dead forever: every frame to it is undeliverable
	const total = 5
	for i := 0; i < total; i++ {
		a.Send(2, i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for n.Stats.DeadLetters.Load() < total {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d frames dead-lettered", n.Stats.DeadLetters.Load(), total)
		}
		time.Sleep(2 * time.Millisecond)
	}
	waitZeroUnacked(t, a) // abandoned frames must leave the send buffer
	if r := n.Stats.Resent.Load(); r != total*3 {
		t.Fatalf("Resent = %d; want exactly MaxResends per frame (%d)", r, total*3)
	}
}

func TestResendBacksOffExponentially(t *testing.T) {
	const after = 4 * time.Millisecond
	n := NewNetwork(Options{ResendAfter: after, DropSeed: 3})
	defer n.Close()
	a := n.Register(1)
	n.Register(2)
	n.Kill(2) // frames to it vanish but stay buffered at the sender
	a.Send(2, "slow")
	// With doubling backoff the first ~90ms allow at most attempts at
	// 4, 8+j, 16+j, 32+j, 64+j ms — i.e. no more than 5; a fixed-interval
	// retransmitter would have fired ~22 times.
	time.Sleep(90 * time.Millisecond)
	if r := n.Stats.Resent.Load(); r > 6 {
		t.Fatalf("Resent = %d after 90ms; backoff is not exponential", r)
	}
}

func TestCrashDiscardsState(t *testing.T) {
	n := NewNetwork(Options{ResendAfter: 5 * time.Millisecond})
	defer n.Close()
	a := n.Register(1)
	b := n.Register(2)
	a.Send(2, "queued")
	time.Sleep(10 * time.Millisecond) // let it arrive in b's inbox
	b.Crash()
	if _, ok := b.TryRecv(); ok {
		t.Fatal("crashed endpoint still delivered queued input")
	}
	if _, ok := b.Recv(); ok {
		t.Fatal("Recv on crashed endpoint did not unblock with false")
	}
	if !b.Crashed() {
		t.Fatal("Crashed() = false after Crash")
	}
	// Sends from a crashed endpoint are suppressed.
	b.Send(1, "ghost")
	time.Sleep(5 * time.Millisecond)
	if _, ok := a.TryRecv(); ok {
		t.Fatal("crashed endpoint's send was delivered")
	}
}

func TestConcurrentSenders(t *testing.T) {
	n := NewNetwork(Options{})
	defer n.Close()
	const senders, per = 8, 200
	dst := n.Register(0)
	var wg sync.WaitGroup
	for s := 1; s <= senders; s++ {
		ep := n.Register(NodeID(s))
		wg.Add(1)
		go func(ep *Endpoint) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				ep.Send(0, i)
			}
		}(ep)
	}
	wg.Wait()
	counts := make(map[NodeID]int)
	for i := 0; i < senders*per; i++ {
		env, ok := dst.Recv()
		if !ok {
			t.Fatal("Recv closed early")
		}
		// Per-sender FIFO: payload must equal that sender's count so far.
		if env.Payload != counts[env.From] {
			t.Fatalf("sender %d out of order: got %v want %d", env.From, env.Payload, counts[env.From])
		}
		counts[env.From]++
	}
}

func TestSendToUnknownNodeIsNoop(t *testing.T) {
	n := NewNetwork(Options{})
	defer n.Close()
	a := n.Register(1)
	a.Send(99, "void") // must not panic or block
}

func waitZeroUnacked(t *testing.T, e *Endpoint) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if e.Unacked() == 0 {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("endpoint still has %d unacked frames", e.Unacked())
}
