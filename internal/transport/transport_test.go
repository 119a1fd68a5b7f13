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

// lossyLoop builds a ForceLoop network on a fresh MemWire whose every frame
// — data and acks alike — meets the returned fault state: the ledger tests'
// substrate, since only the wire can lose a frame.
func lossyLoop(t *testing.T, seed int64, opts Options) (*Network, *WireFaults) {
	t.Helper()
	faults := NewWireFaults(seed)
	opts.DropSeed = seed
	return memWireNet(t, NewMemWire(), "", WireConfig{ForceLoop: true, Faults: faults}, opts), faults
}

func TestResendRecoversDroppedMessages(t *testing.T) {
	n, faults := lossyLoop(t, 1, Options{ResendAfter: 5 * time.Millisecond})
	defer n.Close()
	a := n.Register(1)
	b := n.Register(2)
	faults.SetLoss(0.5, 0) // half of all frames are lost in flight
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
	faults.SetLoss(0, 0)
	waitLedgerDrained(t, n)
}

func TestDuplicatesSuppressed(t *testing.T) {
	n, faults := lossyLoop(t, 2, Options{ResendAfter: 5 * time.Millisecond})
	defer n.Close()
	a := n.Register(1)
	b := n.Register(2)
	faults.SetLoss(0, 1.0) // every frame duplicated in flight
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

// TestPartitionAndHeal: two hosts on one MemWire, the first cut off the wire
// (its outbound frames vanish). Its sends reach nobody while the partition
// holds, though it still hears the other host; once healed, its ledger
// retransmits everything and drains.
func TestPartitionAndHeal(t *testing.T) {
	mw := NewMemWire()
	faultsA := NewWireFaults(1)
	resolve := func(id NodeID) string { return map[NodeID]string{1: "a", 2: "b"}[id] }
	opts := Options{ResendAfter: 5 * time.Millisecond}
	netA := memWireNet(t, mw, "a", WireConfig{Resolve: resolve, Faults: faultsA}, opts)
	defer netA.Close()
	netB := memWireNet(t, mw, "b", WireConfig{Resolve: resolve}, opts)
	defer netB.Close()
	a, b := netA.Register(1), netB.Register(2)

	faultsA.SetPartition(true)
	a.Send(2, "while-down")
	b.Send(1, "inbound")
	if env, ok := recvWithin(t, a, time.Second); !ok || env.Payload != "inbound" {
		t.Fatalf("the partitioned host did not hear its peer: %+v, %v", env, ok)
	}
	time.Sleep(15 * time.Millisecond)
	if _, ok := b.TryRecv(); ok {
		t.Fatal("a partitioned host's send was delivered")
	}

	faultsA.SetPartition(false)
	env, ok := recvWithin(t, b, 5*time.Second) // the retransmission must arrive
	if !ok || env.Payload != "while-down" {
		t.Fatalf("after healing got %+v, %v", env, ok)
	}
	waitLedgerDrained(t, netA)
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

func TestResendBacksOffExponentially(t *testing.T) {
	const after = 4 * time.Millisecond
	n, faults := lossyLoop(t, 3, Options{ResendAfter: after})
	defer n.Close()
	a := n.Register(1)
	n.Register(2)
	faults.SetPartition(true) // frames vanish but stay on the ledger
	a.Send(2, "slow")
	// With doubling backoff the first ~90ms allow at most attempts at
	// 4, 8+j, 16+j, 32+j, 64+j ms after each write — i.e. no more than 5; a
	// fixed-interval retransmitter would have fired ~22 times.
	time.Sleep(90 * time.Millisecond)
	if r := n.Stats.Resent.Load(); r > 6 {
		t.Fatalf("Resent = %d after 90ms; backoff is not exponential", r)
	}
}

// TestCrashDiscardsState: a crash loses the inbox and suppresses the
// endpoint's sends, and the wire ledger forgets the frames addressed to it.
func TestCrashDiscardsState(t *testing.T) {
	n, faults := lossyLoop(t, 4, Options{ResendAfter: 5 * time.Millisecond})
	defer n.Close()
	a := n.Register(1)
	b := n.Register(2)
	a.Send(2, "queued")
	waitCondition(t, func() bool { return b.Pending() == 1 }, "the frame never reached the inbox")
	waitLedgerDrained(t, n)
	faults.SetPartition(true)
	a.Send(2, "unacked")
	waitCondition(t, func() bool { _, unacked := n.wire.ledgerSizes(); return unacked == 1 },
		"the partitioned frame never entered the ledger")
	b.Crash()
	if _, unacked := n.wire.ledgerSizes(); unacked != 0 {
		t.Fatalf("the ledger still holds %d frames for the crashed endpoint", unacked)
	}
	faults.SetPartition(false)
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

// TestQueuedFramesAreNotResent: a frame waiting in a peer queue is not lost,
// so the ledger's clock starts only when the writer writes it. The
// destination host is not listening yet: the writer keeps redialing while
// every frame waits in its queue, and none is resent however long that
// takes. Once the listener opens, every frame arrives exactly once, in order.
func TestQueuedFramesAreNotResent(t *testing.T) {
	const (
		after = 5 * time.Millisecond
		total = 100
	)
	mw := NewMemWire()
	resolve := func(id NodeID) string { return map[NodeID]string{1: "src", 2: "dst"}[id] }
	wire := WireConfig{Resolve: resolve, MaxDialBackoff: 10 * time.Millisecond}
	src := memWireNet(t, mw, "src", wire, Options{ResendAfter: after})
	defer src.Close()
	a := src.Register(1)
	for i := 0; i < total; i++ {
		a.Send(2, i)
	}
	time.Sleep(20 * after)
	if r := src.Stats.Resent.Load(); r != 0 {
		t.Fatalf("Resent = %d while every frame waited in the peer queue; want 0", r)
	}

	dst := memWireNet(t, mw, "dst", wire, Options{ResendAfter: after})
	defer dst.Close()
	b := dst.Register(2)
	for i := 0; i < total; i++ {
		env, ok := recvWithin(t, b, 5*time.Second)
		if !ok || env.Payload != i {
			t.Fatalf("message %d: got %+v, %v", i, env, ok)
		}
	}
	waitLedgerDrained(t, src)
	if env, ok := b.TryRecv(); ok {
		t.Fatalf("a frame arrived twice: %+v", env)
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

// waitLedgerDrained waits until the wire ledger holds no unacknowledged
// frame.
func waitLedgerDrained(t *testing.T, n *Network) {
	t.Helper()
	waitCondition(t, func() bool { _, unacked := n.wire.ledgerSizes(); return unacked == 0 },
		"the wire ledger still holds unacknowledged frames")
}
