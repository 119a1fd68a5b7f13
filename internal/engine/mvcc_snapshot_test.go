package engine

import (
	"math"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"tornado/internal/datasets"
	"tornado/internal/storage"
	"tornado/internal/stream"
)

// loopStores opens each store a loop can run on, keyed by name: the MVCC
// index, and the same index under the disk log. Both are closed when the test
// ends.
func loopStores(t *testing.T) map[string]storage.Store {
	t.Helper()
	disk, err := storage.OpenDisk(filepath.Join(t.TempDir(), "tornado.log"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { disk.Close() })
	mvcc := storage.NewMVCCStore()
	t.Cleanup(func() { mvcc.Close() })
	return map[string]storage.Store{"mvcc": mvcc, "disk": disk}
}

// compactBehind compacts the main loop to its checkpoint every interval until
// the test ends, on any store: a compaction storm on top of the master's
// own.
func compactBehind(t *testing.T, store storage.Store, every time.Duration) {
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			if ck, err := store.LastCheckpoint(storage.MainLoop); err == nil {
				if err := store.Compact(storage.MainLoop, ck); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	t.Cleanup(func() { close(stop); <-done })
}

// TestForkBranchExactSnapshotUnderCompaction is the fork isolation guarantee
// end to end, on every store: a branch must keep reading its exact fork-time
// prefix through its handle while the parent keeps committing and the store
// is compacted aggressively — including direct Compact calls at keepFrom far
// above the fork iteration, which only the store-level pin clamp and the
// handle can survive.
func TestForkBranchExactSnapshotUnderCompaction(t *testing.T) {
	for name, store := range loopStores(t) {
		store := store
		t.Run(name, func(t *testing.T) {
			tuples := datasets.PowerLawGraph(250, 3, 17)
			e := newSSSPEngine(t, 3, 8, store, storage.MainLoop)
			e.Start()
			defer e.Stop()
			e.IngestAll(tuples)
			if err := e.WaitQuiesce(waitFor); err != nil {
				t.Fatal(err)
			}

			// Capture the fork-time truth, then fork.
			want := make(map[stream.VertexID]int64)
			if err := e.ScanStates(math.MaxInt64, func(id stream.VertexID, _ int64, s any) error {
				want[id] = s.(*ssspState).Length
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			br, _, err := e.ForkBranch(7, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer br.Stop()
			if err := br.WaitDone(waitFor); err != nil {
				t.Fatal(err)
			}

			// Evolve the parent past the fork (new edges shorten distances)
			// while a compactor hammers the store with floors far above the
			// fork iteration.
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
						if err := store.Compact(storage.MainLoop, math.MaxInt64/2); err != nil {
							t.Error(err)
							return
						}
						time.Sleep(50 * time.Microsecond)
					}
				}
			}()
			extra := datasets.PowerLawGraph(250, 2, 99)
			e.IngestAll(extra)
			if err := e.WaitQuiesce(waitFor); err != nil {
				t.Fatal(err)
			}

			// The branch must still read the exact fork-time snapshot: its
			// own converged commits overlay the pinned parent prefix, and
			// neither the parent's new versions nor the compactions may show
			// through.
			got := make(map[stream.VertexID]int64)
			if err := br.ScanStates(math.MaxInt64, func(id stream.VertexID, _ int64, s any) error {
				got[id] = s.(*ssspState).Length
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			close(stop)
			wg.Wait()
			for v, w := range want {
				if g, ok := got[v]; !ok || g != w {
					t.Fatalf("vertex %d: branch reads %d (present=%v), fork-time value %d", v, g, ok, w)
				}
			}
			for v := range got {
				if _, ok := want[v]; !ok {
					t.Fatalf("vertex %d appeared in the branch but not in the fork-time snapshot", v)
				}
			}
		})
	}
}

// TestCrashRecoveryMVCCStore reruns master-crash recovery on every
// store: the rollback (Truncate), handle-pinned checkpoint bootstrap, and
// post-recovery commits must reach the exact fixed point, with an
// aggressive compaction storm running the whole time.
func TestCrashRecoveryMVCCStore(t *testing.T) {
	for name, store := range loopStores(t) {
		store := store
		t.Run(name, func(t *testing.T) {
			compactBehind(t, store, time.Millisecond)
			tuples := datasets.PowerLawGraph(200, 3, 31)
			e, err := New(Config{
				Processors: 3,
				DelayBound: 4,
				Kind:       MainLoop,
				LoopID:     storage.MainLoop,
				Store:      store,
				Program:    ssspProg{source: 0},
				Seed:       31,
			})
			if err != nil {
				t.Fatal(err)
			}
			e.Start()
			defer e.Stop()

			half := len(tuples) / 2
			e.IngestAll(tuples[:half])
			if err := e.WaitQuiesce(waitFor); err != nil {
				t.Fatal(err)
			}
			e.CrashMaster()
			e.IngestAll(tuples[half:])
			if err := e.WaitQuiesce(waitFor); err != nil {
				t.Fatal(err)
			}
			checkSSSP(t, e, tuples)
			if s := e.StatsSnapshot(); s.Recoveries < 1 {
				t.Fatalf("Recoveries = %d, want >= 1", s.Recoveries)
			}
		})
	}
}

// TestForkPinsReleasedMVCC asserts the full fork lifecycle returns the
// store to zero pinned snapshots — the leak check behind the
// tornado_store_pinned_snapshots gauge.
func TestForkPinsReleasedMVCC(t *testing.T) {
	store := storage.NewMVCCStore()
	defer store.Close()
	e := newSSSPEngine(t, 2, 4, store, storage.MainLoop)
	e.Start()
	defer e.Stop()
	e.IngestAll(datasets.PowerLawGraph(60, 2, 5))
	if err := e.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		br, _, err := e.ForkBranch(storage.LoopID(10+i), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := br.WaitDone(waitFor); err != nil {
			t.Fatal(err)
		}
		if st := store.StoreStats(); st.PinnedSnapshots < 1 {
			t.Fatalf("fork %d: no pinned snapshot while branch lives: %+v", i, st)
		}
		br.Stop()
	}
	if st := store.StoreStats(); st.PinnedSnapshots != 0 {
		t.Fatalf("pins leaked after all branches stopped: %+v", st)
	}
	if n := e.PinnedForks(); n != 0 {
		t.Fatalf("engine pins leaked: %d", n)
	}
}
