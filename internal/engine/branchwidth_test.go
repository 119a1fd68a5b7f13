package engine_test

import (
	"math"
	"testing"
	"time"

	"tornado/internal/algorithms"
	"tornado/internal/datasets"
	"tornado/internal/engine"
	"tornado/internal/storage"
	"tornado/internal/stream"
)

// The branch-width tests live outside package engine because they run the
// real algorithms programs, DeltaPageRank among them.

const branchWait = 30 * time.Second

// widen is the ForkBranch override that gives a branch n processors.
func widen(n int) func(*engine.Config) {
	return func(cfg *engine.Config) { cfg.Processors = n }
}

// forkConverged forks a branch of e and waits for it to converge; the test's
// cleanup stops it.
func forkConverged(t *testing.T, e *engine.Engine, loop storage.LoopID, override func(*engine.Config)) *engine.Engine {
	t.Helper()
	br, _, err := e.ForkBranch(loop, override, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(br.Stop)
	if err := br.WaitDone(branchWait); err != nil {
		t.Fatal(err)
	}
	return br
}

// pinFrontier settles e and then holds its frontier where it is until the
// returned release runs: every commit from here on lands above the fork
// iteration, so a fork reseeds every vertex the work after the pin touched
// and replays that work's inputs as residual. A fork from a frontier that
// moves mid-burst can miss a gather — a consumer reseeded from a version
// older than an update it took from a producer that is not reseeded — at
// any branch width; these tests are about width.
func pinFrontier(t *testing.T, e *engine.Engine) (release func()) {
	t.Helper()
	if err := e.WaitQuiesce(branchWait); err != nil {
		t.Fatal(err)
	}
	return e.HoldQuiesce()
}

// vertexMsgs is what a loop's processors sent one another — updates net of
// the ones coalesced into an earlier slot, prepares and acks — under
// TestMessagesReconcile's accounting; seeds, inputs and frontier notices are
// not among them.
func vertexMsgs(s engine.StatsSnapshot) int64 {
	return s.UpdateMsgs - s.Coalesced + s.PrepareMsgs + s.AckMsgs
}

// TestBranchRunsOnOneProcessor: a default branch of a 4-processor main loop
// runs on one processor, so every PREPARE, ACK and UPDATE it sends is
// dispatched from the processor's own window and none crosses the transport.
// The override still widens it to four.
func TestBranchRunsOnOneProcessor(t *testing.T) {
	e, err := engine.New(engine.Config{Processors: 4, DelayBound: 64, Kind: engine.MainLoop,
		LoopID: storage.MainLoop, Store: storage.NewMVCCStore(), Program: algorithms.SSSP{Source: 0}, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	defer e.Stop()
	base := datasets.PowerLawGraph(400, 3, 5)
	e.IngestAll(base)
	release := pinFrontier(t, e) // the burst is in flight at both forks
	burst := datasets.PowerLawGraph(400, 1, 6)[:64]
	e.IngestAll(burst)
	upToBurst := append(append([]stream.Tuple{}, base...), burst...)

	br := forkConverged(t, e, storage.LoopID(1), nil)
	wide := forkConverged(t, e, storage.LoopID(2), widen(4))
	release()

	if n := len(br.PartitionLoads()); n != 1 {
		t.Fatalf("default branch has %d load entries; want 1 processor", n)
	}
	s := br.StatsSnapshot()
	if sent := vertexMsgs(s); sent == 0 || s.LocalMsgs != sent {
		t.Fatalf("default branch: %d vertex messages (updates %d − coalesced %d + prepares %d + acks %d), %d dispatched locally; want all local",
			sent, s.UpdateMsgs, s.Coalesced, s.PrepareMsgs, s.AckMsgs, s.LocalMsgs)
	}
	if n := len(wide.PartitionLoads()); n != 4 {
		t.Fatalf("widened branch has %d load entries; want 4", n)
	}
	if ws := wide.StatsSnapshot(); ws.LocalMsgs >= vertexMsgs(ws) {
		t.Fatalf("widened branch dispatched %d of %d vertex messages locally; some must cross the transport", ws.LocalMsgs, vertexMsgs(ws))
	}
	checkDistances(t, br, upToBurst)
	checkDistances(t, wide, upToBurst)
}

// TestBranchWaitsForItsSeeds: a branch holds quiescence from before it
// starts until its seeds and residual inputs are in. A hold taken only after
// Start left an instant in which the branch's master saw an empty tracker and
// halted it with no work done: about one fork in sixteen under -race, each a
// branch answering with the bare snapshot.
func TestBranchWaitsForItsSeeds(t *testing.T) {
	e, err := engine.New(engine.Config{Processors: 4, DelayBound: 64, Kind: engine.MainLoop,
		LoopID: storage.MainLoop, Store: storage.NewMVCCStore(), Program: algorithms.SSSP{Source: 0}, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	defer e.Stop()
	e.IngestAll(datasets.PowerLawGraph(200, 3, 5))
	defer pinFrontier(t, e)() // every fork replays the burst below as residual input
	e.IngestAll(datasets.PowerLawGraph(200, 1, 6)[:16])
	for i := range 200 {
		br, spec, err := e.ForkBranch(storage.LoopID(1+i), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := br.WaitDone(branchWait); err != nil {
			t.Fatal(err)
		}
		s := br.StatsSnapshot()
		br.Stop()
		if len(spec.Residual) == 0 || s.InputMsgs != int64(len(spec.Residual)) {
			t.Fatalf("fork %d converged after %d of its %d residual inputs", i, s.InputMsgs, len(spec.Residual))
		}
	}
}

// TestBranchWidthExact: branches of one in-flight main loop reach the
// sequential reference at width 1 and at width 4 — value SSSP exactly, delta
// PageRank within the benchmark harness's 1e-2 relative error. The main loop
// is elastic and its plan holds a migration override; the second pair of
// forks is taken while a Migrate holds admission waiting for the loop to
// rest, which the frontier pin (pinFrontier, from the first burst to the
// last fork) keeps from coming.
func TestBranchWidthExact(t *testing.T) {
	for _, tc := range []struct {
		name  string
		prog  func(*engine.Config)
		check func(t *testing.T, br *engine.Engine, tuples []stream.Tuple)
	}{
		{"sssp", func(cfg *engine.Config) { cfg.Program = algorithms.SSSP{Source: 0} }, checkDistances},
		{"delta-pagerank", func(cfg *engine.Config) { cfg.Delta = algorithms.DeltaPageRank{} }, checkRanks},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n = 300
			cfg := engine.Config{Processors: 4, MaxProcessors: 6, DelayBound: 64, Kind: engine.MainLoop,
				LoopID: storage.MainLoop, Store: storage.NewMVCCStore(), Seed: 9}
			tc.prog(&cfg)
			e, err := engine.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			e.Start()
			defer e.Stop()
			tuples := datasets.WithRemovals(datasets.PowerLawGraph(n, 3, 9), 0.1, 9)
			cut1, cut2 := len(tuples)/2, 3*len(tuples)/4
			e.IngestAll(tuples[:cut1/2])
			if err := e.WaitQuiesce(branchWait); err != nil {
				t.Fatal(err)
			}
			if err := e.Migrate(engine.VertexRange{Lo: 0, Hi: n/2 - 1}, 4); err != nil {
				t.Fatal(err)
			}
			if ov := e.PlanStats().Overrides; len(ov) == 0 {
				t.Fatal("plan holds no override after a migration")
			}

			// Forks behind a burst the main loop has not absorbed.
			release := pinFrontier(t, e)
			e.IngestAll(tuples[cut1/2 : cut1])
			for i, width := range []int{1, 4} {
				br := forkConverged(t, e, storage.LoopID(1+i), widen(width))
				if got := len(br.PartitionLoads()); got != width {
					t.Fatalf("branch has %d processors; want %d", got, width)
				}
				tc.check(t, br, tuples[:cut1])
			}

			// Forks while a migration waits for rest: it holds admission,
			// and the pinned frontier keeps the loop from resting.
			e.IngestAll(tuples[cut1:cut2])
			migrated := make(chan error, 1)
			go func() { migrated <- e.Migrate(engine.VertexRange{Lo: n / 2, Hi: n - 1}, 5) }()
			deadline := time.Now().Add(branchWait)
			for !engine.AdmissionStopped(e) {
				if time.Now().After(deadline) {
					t.Fatal("migration never stopped admission")
				}
				time.Sleep(time.Millisecond)
			}
			for i, width := range []int{1, 4} {
				br := forkConverged(t, e, storage.LoopID(3+i), widen(width))
				tc.check(t, br, tuples[:cut2])
			}
			if !engine.AdmissionStopped(e) {
				t.Fatal("migration finished before the forks; the pinned frontier should hold it")
			}
			release()
			if err := <-migrated; err != nil {
				t.Fatal(err)
			}
			e.IngestAll(tuples[cut2:])
			if err := e.WaitQuiesce(branchWait); err != nil {
				t.Fatal(err)
			}
			tc.check(t, e, tuples)
		})
	}
}

func checkDistances(t *testing.T, e *engine.Engine, tuples []stream.Tuple) {
	t.Helper()
	got, err := algorithms.Distances(e)
	if err != nil {
		t.Fatal(err)
	}
	for v, d := range algorithms.RefSSSP(tuples, 0, 0) {
		if g, ok := got[v]; !ok || g != d {
			t.Fatalf("vertex %d at %d (present %v), reference %d", v, g, ok, d)
		}
	}
}

func checkRanks(t *testing.T, e *engine.Engine, tuples []stream.Tuple) {
	t.Helper()
	got, err := algorithms.Ranks(e)
	if err != nil {
		t.Fatal(err)
	}
	want := algorithms.RefPageRank(tuples, 0.85, 1e-12)
	worst := 0.0
	for v, r := range want {
		worst = math.Max(worst, math.Abs(got[v]-r)/r)
	}
	if len(got) != len(want) || worst > 1e-2 {
		t.Fatalf("%d ranks against %d, worst relative error %.3g > 1e-2", len(got), len(want), worst)
	}
}
