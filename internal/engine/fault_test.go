package engine

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"tornado/internal/datasets"
	"tornado/internal/storage"
	"tornado/internal/stream"
	"tornado/internal/transport"
)

// TestLossyTransportStillConverges exercises the at-least-once path hard:
// frames are dropped and duplicated on the in-memory wire, the wire ledger's
// retransmission recovers them, and the loop still reaches the sequential
// reference fixed point.
func TestLossyTransportStillConverges(t *testing.T) {
	tuples := datasets.PowerLawGraph(60, 3, 77)
	cases := []struct{ drop, dup float64 }{
		{0.10, 0}, {0, 0.25}, {0.10, 0.10},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("drop=%.2f/dup=%.2f", c.drop, c.dup), func(t *testing.T) {
			e, err := New(Config{
				Processors:  3,
				DelayBound:  16,
				Kind:        MainLoop,
				LoopID:      storage.MainLoop,
				Store:       storage.NewMVCCStore(),
				Program:     ssspProg{source: 0},
				ResendAfter: 2 * time.Millisecond,
				Wire:        &WireSpec{Mem: transport.NewMemWire()},
				Seed:        42,
			})
			if err != nil {
				t.Fatal(err)
			}
			e.wireFaults.SetLoss(c.drop, c.dup)
			e.Start()
			defer e.Stop()
			e.IngestAll(tuples)
			if err := e.WaitQuiesce(waitFor); err != nil {
				t.Fatal(err)
			}
			checkSSSP(t, e, tuples)
		})
	}
}

// TestLossyTransportBranchFork forks a branch while the main loop's wire
// drops and duplicates frames; both must still be exact.
func TestLossyTransportBranchFork(t *testing.T) {
	tuples := datasets.PowerLawGraph(50, 3, 79)
	e, err := New(Config{
		Processors:  2,
		DelayBound:  32,
		Kind:        MainLoop,
		LoopID:      storage.MainLoop,
		Store:       storage.NewMVCCStore(),
		Program:     ssspProg{source: 0},
		ResendAfter: 2 * time.Millisecond,
		Wire:        &WireSpec{Mem: transport.NewMemWire()},
		Seed:        42,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.wireFaults.SetLoss(0.05, 0.05)
	e.Start()
	defer e.Stop()
	e.IngestAll(tuples)
	br, _, err := e.ForkBranch(storage.LoopID(1), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer br.Stop()
	if err := br.WaitDone(waitFor); err != nil {
		t.Fatal(err)
	}
	checkSSSP(t, br, tuples)
	if err := e.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	checkSSSP(t, e, tuples)
}

// TestRandomizedConfigurations is a property-style sweep: random graphs with
// removals, random processor counts, delay bounds, commit jitter and split
// points — every configuration must converge to the sequential reference.
func TestRandomizedConfigurations(t *testing.T) {
	rng := rand.New(rand.NewSource(2016))
	for trial := 0; trial < 12; trial++ {
		trial := trial
		n := 40 + rng.Intn(80)
		procs := 1 + rng.Intn(5)
		bound := []int64{1, 2, 3, 8, 64, 1 << 30}[rng.Intn(6)]
		removeFrac := float64(rng.Intn(3)) * 0.1
		jitter := time.Duration(rng.Intn(3)) * 50 * time.Microsecond
		seed := rng.Int63()
		tuples := datasets.WithRemovals(datasets.PowerLawGraph(n, 3, seed), removeFrac, seed+1)
		cut := 1 + rng.Intn(len(tuples)-1)
		name := fmt.Sprintf("trial=%d/n=%d/procs=%d/B=%d", trial, n, procs, bound)
		t.Run(name, func(t *testing.T) {
			cfg := Config{
				Processors: procs,
				DelayBound: bound,
				Kind:       MainLoop,
				LoopID:     storage.MainLoop,
				Store:      storage.NewMVCCStore(),
				Program:    ssspProg{source: 0},
				Seed:       seed,
			}
			if jitter > 0 {
				cfg.CommitDelay = func(p int) time.Duration {
					if p == 0 {
						return jitter
					}
					return 0
				}
			}
			e, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			e.Start()
			defer e.Stop()
			e.IngestAll(tuples[:cut])
			if err := e.WaitQuiesce(waitFor); err != nil {
				t.Fatal(err)
			}
			checkSSSP(t, e, tuples[:cut])
			e.IngestAll(tuples[cut:])
			if err := e.WaitQuiesce(waitFor); err != nil {
				t.Fatal(err)
			}
			checkSSSP(t, e, tuples)
		})
	}
}

// TestRepeatedPauseResumeCycles hammers the failure path: several
// pause/resume cycles of processors and the master while a stream is being
// absorbed; the final state must still be exact.
func TestRepeatedPauseResumeCycles(t *testing.T) {
	tuples := datasets.PowerLawGraph(120, 3, 83)
	e := newSSSPEngine(t, 4, 16, storage.NewMVCCStore(), storage.MainLoop)
	e.Start()
	defer e.Stop()
	chunk := len(tuples) / 6
	for i := 0; i < 6; i++ {
		lo, hi := i*chunk, (i+1)*chunk
		if i == 5 {
			hi = len(tuples)
		}
		e.IngestAll(tuples[lo:hi])
		switch i % 3 {
		case 0:
			e.PauseProcessor(i % 4)
			time.Sleep(2 * time.Millisecond)
			e.ResumeProcessor(i % 4)
		case 1:
			e.PauseMaster()
			time.Sleep(2 * time.Millisecond)
			e.ResumeMaster()
		}
	}
	if err := e.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	checkSSSP(t, e, tuples)
	checkQuiescent(t, e)
}

// TestStaleEdgeOpIsIgnored pins the event-time gate: when an edge insertion
// arrives AFTER the removal that supersedes it (as happens when a dropped
// frame is retransmitted under at-least-once delivery), the removal must
// win — topology application is commutative in event time.
func TestStaleEdgeOpIsIgnored(t *testing.T) {
	e := newSSSPEngine(t, 2, 8, storage.NewMVCCStore(), storage.MainLoop)
	e.Start()
	defer e.Stop()
	e.Ingest(stream.AddEdge(1, 0, 1))
	e.Ingest(stream.RemoveEdge(3, 0, 1)) // remove, stamped t=3...
	e.Ingest(stream.AddEdge(2, 0, 1))    // ...then the older add arrives late
	if err := e.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	st, _, err := e.ReadState(1, math.MaxInt64)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.(*ssspState).Length; got != inf {
		t.Fatalf("dist(1) = %d; the stale re-add resurrected a removed edge", got)
	}
	// A genuinely NEWER add must still apply.
	e.Ingest(stream.AddEdge(4, 0, 1))
	if err := e.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	st, _, err = e.ReadState(1, math.MaxInt64)
	if err != nil || st.(*ssspState).Length != 1 {
		t.Fatalf("dist(1) = %v, %v; want 1 after fresh re-add", st, err)
	}
	checkQuiescent(t, e)
}

// TestDuplicateActivationsAreIdempotent re-activates vertices repeatedly; the
// fixed point must be unaffected (re-scattering a fixed point is a no-op).
func TestDuplicateActivationsAreIdempotent(t *testing.T) {
	tuples := datasets.PowerLawGraph(60, 3, 89)
	e := newSSSPEngine(t, 2, 8, storage.NewMVCCStore(), storage.MainLoop)
	e.Start()
	defer e.Stop()
	e.IngestAll(tuples)
	if err := e.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		for v := stream.VertexID(0); v < 60; v += 7 {
			e.Activate(v)
		}
	}
	if err := e.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	checkSSSP(t, e, tuples)
}
