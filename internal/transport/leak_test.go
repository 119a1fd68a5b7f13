package transport

import (
	"runtime"
	"testing"
	"time"
)

// checkGoroutines asserts the goroutine count returns to its baseline after
// fn, retrying for a grace period (conn teardown and pool cleanup are
// asynchronous by design).
func checkGoroutines(t *testing.T, fn func()) {
	t.Helper()
	runtime.GC()
	before := runtime.NumGoroutine()
	fn()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		now := runtime.NumGoroutine()
		if now <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d before, %d after\n%s", before, now, buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestNoLeakPlainNetworkClose(t *testing.T) {
	checkGoroutines(t, func() {
		n := NewNetwork(Options{MaxBatch: 8})
		a := n.Register(1)
		b := n.Register(2)
		for i := 0; i < 100; i++ {
			a.Send(2, i)
		}
		for i := 0; i < 100; i++ {
			if _, ok := b.Recv(); !ok {
				t.Fatal("closed early")
			}
		}
		n.Close()
	})
}

func TestNoLeakWireForceLoopClose(t *testing.T) {
	checkGoroutines(t, func() {
		mw := NewMemWire()
		ln, err := mw.Listen("")
		if err != nil {
			t.Fatal(err)
		}
		n := NewNetwork(Options{
			ResendAfter: 5 * time.Millisecond,
			Wire:        &WireConfig{Listener: ln, Dialer: mw.Dialer(), ForceLoop: true},
		})
		a := n.Register(1)
		b := n.Register(2)
		for i := 0; i < 100; i++ {
			a.Send(2, i)
		}
		collect(t, b, 100)
		n.Close()
	})
}

func TestNoLeakWireTCPClose(t *testing.T) {
	checkGoroutines(t, func() {
		ln, err := ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		n := NewNetwork(Options{
			ResendAfter: 5 * time.Millisecond,
			Wire:        &WireConfig{Listener: ln, Dialer: TCPDialer{}, ForceLoop: true},
		})
		a := n.Register(1)
		b := n.Register(2)
		for i := 0; i < 50; i++ {
			a.Send(2, i)
		}
		collect(t, b, 50)
		n.Close()
	})
}

func TestNoLeakWireAbort(t *testing.T) {
	checkGoroutines(t, func() {
		mw := NewMemWire()
		ln, err := mw.Listen("")
		if err != nil {
			t.Fatal(err)
		}
		n := NewNetwork(Options{
			ResendAfter: 5 * time.Millisecond,
			Wire:        &WireConfig{Listener: ln, Dialer: mw.Dialer(), ForceLoop: true},
		})
		a := n.Register(1)
		n.Register(2)
		for i := 0; i < 50; i++ {
			a.Send(2, i)
		}
		n.Abort() // mid-flight teardown: queued wire frames die with the host
	})
}

func TestNoLeakWireDialFailure(t *testing.T) {
	checkGoroutines(t, func() {
		mw := NewMemWire()
		ln, err := mw.Listen("")
		if err != nil {
			t.Fatal(err)
		}
		// Resolve to an address nothing listens on: the peer writer spins in
		// its dial backoff until close, then must exit promptly.
		n := NewNetwork(Options{
			ResendAfter: 5 * time.Millisecond,
			Wire: &WireConfig{
				Listener: ln,
				Dialer:   mw.Dialer(),
				Resolve:  func(NodeID) string { return "mem-nowhere" },
			},
		})
		a := n.Register(1)
		a.Send(99, "into the void")
		time.Sleep(30 * time.Millisecond) // let the dial loop start failing
		n.Close()
	})
}

func TestNoLeakWirePartitionedClose(t *testing.T) {
	checkGoroutines(t, func() {
		mw := NewMemWire()
		ln, err := mw.Listen("")
		if err != nil {
			t.Fatal(err)
		}
		faults := NewWireFaults(3)
		faults.SetPartition(true)
		n := NewNetwork(Options{
			ResendAfter: 5 * time.Millisecond,
			Wire:        &WireConfig{Listener: ln, Dialer: mw.Dialer(), ForceLoop: true, Faults: faults},
		})
		a := n.Register(1)
		n.Register(2)
		for i := 0; i < 50; i++ {
			a.Send(2, i)
		}
		time.Sleep(20 * time.Millisecond)
		n.Close() // close during an unhealed partition must not wedge
	})
}
