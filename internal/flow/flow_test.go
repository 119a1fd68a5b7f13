package flow

import (
	"sync"
	"testing"
	"time"
)

func TestGateAdmitsUnderHigh(t *testing.T) {
	g := NewGate(4, 2)
	for i := 0; i < 3; i++ {
		if !g.TryAcquire() {
			t.Fatalf("TryAcquire %d refused under high watermark", i)
		}
	}
	if g.Depth() != 3 {
		t.Fatalf("Depth = %d, want 3", g.Depth())
	}
	if g.Saturated() {
		t.Fatal("saturated below high watermark")
	}
}

func TestGateWatermarkHysteresis(t *testing.T) {
	g := NewGate(4, 1)
	for i := 0; i < 4; i++ {
		g.Acquire()
	}
	if !g.Saturated() {
		t.Fatal("not saturated at high watermark")
	}
	if g.TryAcquire() {
		t.Fatal("TryAcquire succeeded while saturated")
	}
	// Draining to above the low watermark must not re-open the gate.
	g.Release(2)
	if g.TryAcquire() {
		t.Fatal("gate re-opened above the low watermark")
	}
	// A blocked acquirer must resume only once drained to low.
	resumed := make(chan struct{})
	go func() {
		g.Acquire()
		close(resumed)
	}()
	select {
	case <-resumed:
		t.Fatal("Acquire returned while saturated")
	case <-time.After(20 * time.Millisecond):
	}
	g.Release(1) // out: 1 == low → re-open
	select {
	case <-resumed:
	case <-time.After(time.Second):
		t.Fatal("Acquire still blocked after drain to low watermark")
	}
	if g.Waits() == 0 {
		t.Fatal("blocked acquire not counted")
	}
	if g.WaitTime() <= 0 {
		t.Fatal("blocked acquire accrued no wait time")
	}
}

func TestGateAcquireUpToChunks(t *testing.T) {
	g := NewGate(8, 4)
	n := g.AcquireUpTo(100)
	if n != 8 {
		t.Fatalf("AcquireUpTo(100) = %d, want 8 (the high watermark)", n)
	}
	if !g.Saturated() {
		t.Fatal("gate not saturated after taking the full watermark")
	}
	done := make(chan int, 1)
	go func() { done <- g.AcquireUpTo(100) }()
	g.Release(8)
	if got := <-done; got != 8 {
		t.Fatalf("second AcquireUpTo = %d, want 8", got)
	}
}

func TestGateResetUnblocks(t *testing.T) {
	g := NewGate(2, 0)
	g.AcquireUpTo(2)
	resumed := make(chan struct{})
	go func() {
		g.Acquire()
		close(resumed)
	}()
	time.Sleep(10 * time.Millisecond)
	g.Reset()
	select {
	case <-resumed:
	case <-time.After(time.Second):
		t.Fatal("Acquire still blocked after Reset")
	}
	if g.Resets() != 1 {
		t.Fatalf("Resets = %d, want 1", g.Resets())
	}
}

func TestGateReleaseClampsAtZero(t *testing.T) {
	g := NewGate(4, 2)
	g.Acquire()
	g.Release(100) // straggler from a discarded incarnation
	if d := g.Depth(); d != 0 {
		t.Fatalf("Depth = %d after over-release, want 0", d)
	}
	// The ledger must still bound future work.
	if n := g.AcquireUpTo(100); n != 4 {
		t.Fatalf("AcquireUpTo after clamp = %d, want 4", n)
	}
}

func TestGateCloseOpensPermanently(t *testing.T) {
	g := NewGate(1, 0)
	g.Acquire()
	done := make(chan struct{})
	go func() {
		g.Acquire()
		close(done)
	}()
	time.Sleep(5 * time.Millisecond)
	g.Close()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Acquire still blocked after Close")
	}
	if !g.TryAcquire() {
		t.Fatal("TryAcquire refused on a closed gate")
	}
}

func TestGateConcurrentBound(t *testing.T) {
	const high, workers, perWorker = 16, 8, 200
	g := NewGate(high, high/2)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				g.Acquire()
				go g.Release(1)
			}
		}()
	}
	wg.Wait()
	if p := g.Peak(); p > high {
		t.Fatalf("peak outstanding %d exceeded high watermark %d", p, high)
	}
}
