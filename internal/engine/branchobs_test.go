package engine

import (
	"strings"
	"testing"

	"tornado/internal/datasets"
	"tornado/internal/obs"
	"tornado/internal/storage"
)

// countFamilies parses a Prometheus exposition and counts distinct metric
// families (one "# TYPE" line each).
func countFamilies(t *testing.T, hub *obs.Hub) (int, string) {
	t.Helper()
	var b strings.Builder
	if err := hub.Registry.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	return strings.Count(out, "# TYPE "), out
}

// TestForkRegistersNoNewFamilies is the guard for the pooled branch-loop
// accounting: forking a branch must not create (and stopping it must not
// destroy) a single registry family — a fork's observability cost is one map
// insert into the parent's branchObs pool. Branch activity must still be
// visible in aggregate through the fixed tornado_branch_* families.
func TestForkRegistersNoNewFamilies(t *testing.T) {
	hub := obs.NewHub(0)
	e, err := New(Config{
		Processors: 2,
		DelayBound: 8,
		Kind:       MainLoop,
		LoopID:     storage.MainLoop,
		Store:      storage.NewMVCCStore(),
		Program:    ssspProg{source: 0},
		Seed:       7,
		Obs:        hub,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	defer e.Stop()
	e.IngestAll(datasets.PowerLawGraph(60, 3, 11))
	if err := e.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}

	before, _ := countFamilies(t, hub)
	if before == 0 {
		t.Fatal("main loop registered no families; scrape is broken")
	}

	// Seed each branch with fresh edges so it has real work to converge (a
	// fork of a quiesced loop with no residual commits nothing), keeping the
	// aggregate families observably non-zero.
	const forks = 3
	branches := make([]*Engine, 0, forks)
	for i := 1; i <= forks; i++ {
		br, _, err := e.ForkBranch(storage.LoopID(i), nil, func(br *Engine) {
			br.IngestAll(ringTuples(8))
		})
		if err != nil {
			t.Fatal(err)
		}
		branches = append(branches, br)
	}
	for _, br := range branches {
		if err := br.WaitDone(waitFor); err != nil {
			t.Fatal(err)
		}
	}

	during, out := countFamilies(t, hub)
	if during != before {
		t.Fatalf("live branches changed the family count: %d -> %d\n%s", before, during, out)
	}
	if !strings.Contains(out, "tornado_branch_forks_total") {
		t.Fatalf("aggregate branch families missing from exposition:\n%s", out)
	}

	// The pool sees every fork, live, and the work they did.
	if got := e.branchObs.forks.Load(); got != forks {
		t.Fatalf("branchObs.forks = %d; want %d", got, forks)
	}
	e.branchObs.mu.Lock()
	liveN := len(e.branchObs.live)
	e.branchObs.mu.Unlock()
	if liveN != forks {
		t.Fatalf("branchObs.live = %d; want %d", liveN, forks)
	}
	liveTotals := e.branchObs.totals()
	if liveTotals.commits == 0 {
		t.Fatal("converged branches contributed no commits to the aggregate")
	}

	// Stopping branches folds their counters into the retired accumulator:
	// totals never move backwards, families never disappear.
	for _, br := range branches {
		br.Stop()
	}
	after, out := countFamilies(t, hub)
	if after != before {
		t.Fatalf("stopping branches changed the family count: %d -> %d\n%s", before, after, out)
	}
	retiredTotals := e.branchObs.totals()
	if retiredTotals.commits < liveTotals.commits {
		t.Fatalf("aggregate commits moved backwards on branch stop: %d -> %d",
			liveTotals.commits, retiredTotals.commits)
	}
	e.branchObs.mu.Lock()
	liveN = len(e.branchObs.live)
	e.branchObs.mu.Unlock()
	if liveN != 0 {
		t.Fatalf("branchObs.live = %d after stops; want 0", liveN)
	}
}

// benchFork runs the fork/converge/stop cycle the query fast path pays.
func benchFork(b *testing.B, hub *obs.Hub) {
	cfg := Config{
		Processors: 2,
		DelayBound: 8,
		Kind:       MainLoop,
		LoopID:     storage.MainLoop,
		Store:      storage.NewMVCCStore(),
		Program:    ssspProg{source: 0},
		Seed:       7,
		Obs:        hub,
	}
	e, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	e.Start()
	defer e.Stop()
	e.IngestAll(datasets.PowerLawGraph(60, 3, 11))
	if err := e.WaitQuiesce(waitFor); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br, _, err := e.ForkBranch(storage.LoopID(i+1), nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		if err := br.WaitDone(waitFor); err != nil {
			b.Fatal(err)
		}
		br.Stop()
	}
}

// BenchmarkForkBranch / BenchmarkForkBranchWithHub pin the PR-1 wart fix:
// with a hub attached a fork pays only the shared span tracer plus one
// pool insert — not the per-fork collector registration that used to ~2x the
// fork/converge/close cycle. Compare the two to see the residual hub cost.
func BenchmarkForkBranch(b *testing.B)        { benchFork(b, nil) }
func BenchmarkForkBranchWithHub(b *testing.B) { benchFork(b, obs.NewHub(0)) }
