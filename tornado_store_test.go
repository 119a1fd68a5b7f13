package tornado

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"tornado/internal/algorithms"
	"tornado/internal/datasets"
	"tornado/internal/storage"
)

// TestQueriesExactOnMVCCUnderCompaction runs the query service against an
// explicit MVCC store while an adversarial goroutine compacts the main loop
// at floors far above every fork iteration. Every concurrent query must still
// read the exact reference fixed point of its journal prefix: the fork pins
// clamp compaction and the O(1) snapshot handles keep the prefix reachable.
func TestQueriesExactOnMVCCUnderCompaction(t *testing.T) {
	store := storage.NewMVCCStore()
	t.Cleanup(func() { _ = store.Close() })
	sys := newSSSP(t, Options{Processors: 3, DelayBound: 32, Store: store})

	tuples := datasets.PowerLawGraph(150, 3, 55)
	sys.IngestAll(tuples)
	if err := sys.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	want := algorithms.RefSSSP(tuples, 0, 64)

	stop := make(chan struct{})
	var compWG sync.WaitGroup
	compWG.Add(1)
	go func() {
		defer compWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if err := store.Compact(storage.MainLoop, math.MaxInt64/2); err != nil {
					t.Error(err)
					return
				}
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()

	const clients = 16
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Force distinct forks (no cache, no coalescing shortcut for the
			// stale half) so several snapshots are pinned at once.
			spec := QuerySpec{Timeout: waitFor, Priority: i % 3}
			tk, err := sys.Submit(context.Background(), spec)
			if err != nil {
				errs[i] = err
				return
			}
			qr, err := tk.Wait(context.Background())
			if err != nil {
				errs[i] = err
				return
			}
			res := wrapResult(qr)
			defer res.Close()
			if int(res.ForkSeq()) != len(tuples) {
				t.Errorf("client %d forked at seq %d, journal has %d", i, res.ForkSeq(), len(tuples))
				return
			}
			errs[i] = res.Scan(func(id VertexID, state any) error {
				if got := state.(*algorithms.SSSPState).Length; got != want[id] {
					t.Errorf("client %d vertex %d: got %d, reference %d", i, id, got, want[id])
				}
				return nil
			})
		}(i)
	}
	wg.Wait()
	close(stop)
	compWG.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}

	// What the public API shows of a quiescent main loop: no obligation left
	// (the per-vertex audit, checkQuiescent, is internal to the engine's tests).
	if err := sys.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	if s := sys.Engine().StatsSnapshot(); s.PendingPrepares != 0 {
		t.Fatalf("%d prepares pending on a quiescent main loop", s.PendingPrepares)
	}

	// The MVCC stats surface through the public API, and once results are
	// closed the pinned-snapshot count drains back to zero.
	stats, ok := sys.StoreStats()
	if !ok {
		t.Fatal("System.StoreStats reported no provider for an MVCC store")
	}
	if stats.LiveVersions == 0 || stats.ResidentBytes == 0 {
		t.Fatalf("implausible store stats after a full run: %+v", stats)
	}
	// The result cache intentionally retains one warm branch (one handle and
	// one pin); shutting the service down must drain everything.
	sys.Close()
	deadline := time.Now().Add(5 * time.Second)
	for store.StoreStats().PinnedSnapshots != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("snapshot pins still held after Close: %+v", store.StoreStats())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
