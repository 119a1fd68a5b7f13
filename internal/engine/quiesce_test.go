package engine

import (
	"math"
	"testing"
	"time"

	"tornado/internal/datasets"
	"tornado/internal/obs"
	"tornado/internal/storage"
)

// TestWaitQuiesceCoversMasterRecord: WaitQuiesce returns on the master's
// published record, so everything the master records for an advance is
// already there when it returns — the IterationLog reaches Notified, no
// version sits above Notified, and every traced commit has its frontier
// span. Sampling the tracker instead let the call return between the last
// token's release and the master's advance: about one run in 50 of this
// shape in a normal build, one in 12 under -race. The race build runs 20,
// and make race repeats the test 50 times.
func TestWaitQuiesceCoversMasterRecord(t *testing.T) {
	runs := 200
	if raceBuild {
		runs = 20
	}
	for run := 0; run < runs; run++ {
		e, err := New(Config{
			Processors: 4,
			DelayBound: 64,
			Kind:       MainLoop,
			LoopID:     storage.MainLoop,
			Store:      storage.NewMVCCStore(),
			Program:    ssspProg{source: 0},
			Seed:       int64(run),
			Obs:        obs.NewHub(1),
		})
		if err != nil {
			t.Fatal(err)
		}
		e.Start()
		e.IngestAll(datasets.PowerLawGraph(300, 3, int64(run)))
		if err := e.WaitQuiesce(waitFor); err != nil {
			e.Stop()
			t.Fatal(err)
		}
		notified := e.Notified()
		log := e.IterationLog()
		if len(log) == 0 || log[len(log)-1].Iteration != notified {
			e.Stop()
			t.Fatalf("run %d: IterationLog ends at %v; want Notified %d", run, log[max(len(log)-1, 0):], notified)
		}
		top := int64(-1)
		if err := e.cfg.Store.Scan(e.cfg.LoopID, math.MaxInt64, func(r storage.Record) error {
			top = max(top, r.Iteration)
			return nil
		}); err != nil {
			e.Stop()
			t.Fatal(err)
		}
		if top > notified {
			e.Stop()
			t.Fatalf("run %d: a vertex committed at %d, above Notified %d", run, top, notified)
		}
		e.traceCommitMu.Lock()
		uncovered := len(e.traceCommits)
		e.traceCommitMu.Unlock()
		if uncovered != 0 {
			e.Stop()
			t.Fatalf("run %d: %d traced commits still await their frontier span", run, uncovered)
		}
		checkQuiescent(t, e)
	}
}

// TestWaitQuiesceAwaitsPausedMaster: only the master publishes quiescence, so
// a paused master holds WaitQuiesce even after the loop's tokens drained; the
// call returns once ResumeMaster lets the master announce.
func TestWaitQuiesceAwaitsPausedMaster(t *testing.T) {
	tuples := datasets.PowerLawGraph(200, 3, 7)
	// Unbounded B: the cascade completes with no frontier announced.
	e := newSSSPEngine(t, 2, 1<<40, storage.NewMVCCStore(), storage.MainLoop)
	e.PauseMaster()
	e.Start()
	defer e.Stop()
	e.IngestAll(tuples)
	waitUntil(t, waitFor, e.Quiesced, "tokens never drained under the paused master")
	if err := e.WaitQuiesce(20 * time.Millisecond); err == nil {
		t.Fatal("WaitQuiesce returned while the master was paused")
	}
	if e.Notified() != -1 || len(e.IterationLog()) != 0 {
		t.Fatalf("paused master announced through %d", e.Notified())
	}
	e.ResumeMaster()
	if err := e.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	if log := e.IterationLog(); len(log) == 0 || log[len(log)-1].Iteration != e.Notified() {
		t.Fatalf("IterationLog does not reach Notified %d after the resume", e.Notified())
	}
	checkSSSP(t, e, tuples)
	checkQuiescent(t, e)
}
