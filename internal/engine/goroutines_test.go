package engine

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"tornado/internal/datasets"
	"tornado/internal/storage"
)

// engineGoroutines counts the live goroutines the engine and its transport
// started, by the "created by" frame of every goroutine's stack, and returns
// the dump for a failure message. Every engine goroutine is started by an
// Engine method; a goroutine a test function started is not the engine's,
// and one still exiting from an earlier test must not count.
func engineGoroutines() (int, []byte) {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	count := 0
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if bytes.Contains(g, []byte("created by tornado/internal/engine.(*Engine).")) ||
			bytes.Contains(g, []byte("created by tornado/internal/transport.")) {
			count++
		}
	}
	return count, buf
}

// settledEngineGoroutines is engineGoroutines once the count has held still
// for 20ms: a goroutine of an earlier test's engine can still be on its way
// out after that engine's Stop returned (its WaitGroup's Done runs before it
// ends), and counting it into a baseline would hide one of ours.
func settledEngineGoroutines() int {
	n, _ := engineGoroutines()
	for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); {
		time.Sleep(20 * time.Millisecond)
		m, _ := engineGoroutines()
		if m == n {
			break
		}
		n = m
	}
	return n
}

// waitEngineGoroutines polls until ok accepts the count of engine goroutines
// above base, failing with the dump after five seconds.
func waitEngineGoroutines(t *testing.T, base int, what string, ok func(int) bool) int {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n, dump := engineGoroutines()
		if ok(n - base) {
			return n - base
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d engine goroutines\n%s", what, n-base, dump)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestGoroutinesPerLoop pins the goroutines a loop costs: a main loop runs
// one per processor plus its master, before and after a crash's recovery —
// nothing stays resident to watch for crashes, and the recovery goroutine
// exits with its restart — and a quiesced one-processor branch adds no more
// than its processor and master. No endpoint of the in-process transport
// runs one, not even before Start.
func TestGoroutinesPerLoop(t *testing.T) {
	const procs = 4
	base := settledEngineGoroutines()
	e, err := New(Config{Processors: procs, DelayBound: 8, Kind: MainLoop, LoopID: storage.MainLoop,
		Store: storage.NewMVCCStore(), Program: ssspProg{source: 0}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if n, dump := engineGoroutines(); n > base {
		t.Fatalf("a loop that has not started runs %d goroutines\n%s", n-base, dump)
	}
	e.Start()
	defer e.Stop()
	e.IngestAll(datasets.PowerLawGraph(200, 3, 5))
	if err := e.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	waitEngineGoroutines(t, base, "main loop", func(n int) bool { return n == procs+1 })

	e.CrashProcessor(1)
	if err := e.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	if s := e.StatsSnapshot(); s.Recoveries != 1 {
		t.Fatalf("Recoveries = %d after the crash; want 1", s.Recoveries)
	}
	waitEngineGoroutines(t, base, "main loop after a recovery", func(n int) bool { return n == procs+1 })

	base = settledEngineGoroutines()
	br, _, err := e.ForkBranch(1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer br.Stop()
	if err := br.WaitDone(waitFor); err != nil {
		t.Fatal(err)
	}
	if n, dump := engineGoroutines(); n-base > 2 {
		t.Fatalf("a quiesced one-processor branch runs %d goroutines; want at most its processor and master\n%s", n-base, dump)
	}
}
