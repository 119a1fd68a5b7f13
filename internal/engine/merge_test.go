package engine

import (
	"errors"
	"math"
	"testing"

	"tornado/internal/datasets"
	"tornado/internal/storage"
	"tornado/internal/stream"
)

func TestAdoptBranchImprovesApproximation(t *testing.T) {
	tuples := datasets.PowerLawGraph(100, 3, 47)
	e := newSSSPEngine(t, 3, 16, storage.NewMVCCStore(), storage.MainLoop)
	e.Start()
	defer e.Stop()
	e.IngestAll(tuples)
	if err := e.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	br, _, err := e.ForkBranch(storage.LoopID(1), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer br.Stop()
	if err := br.WaitDone(waitFor); err != nil {
		t.Fatal(err)
	}
	notifiedBefore := e.Notified()
	if err := e.AdoptBranch(br); err != nil {
		t.Fatal(err)
	}
	// The merged versions are stamped above the old frontier, at
	// lastTerminated + B.
	_, iter, err := e.ReadState(0, math.MaxInt64)
	if err != nil {
		t.Fatal(err)
	}
	if iter != notifiedBefore+16 {
		t.Fatalf("merged version at iteration %d; want %d", iter, notifiedBefore+16)
	}
	// Main-loop state still matches the reference after the merge, and the
	// loop keeps working on further input.
	checkSSSP(t, e, tuples)
	e.Ingest(stream.AddEdge(1<<40, 0, 99))
	if err := e.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	all := append(append([]stream.Tuple{}, tuples...), stream.AddEdge(1<<40, 0, 99))
	checkSSSP(t, e, all)
	checkQuiescent(t, e)
}

func TestAdoptBranchRejectsUnconvergedBranch(t *testing.T) {
	e := newSSSPEngine(t, 2, 8, storage.NewMVCCStore(), storage.MainLoop)
	e.Start()
	defer e.Stop()
	e.Ingest(stream.AddEdge(1, 0, 1))
	if err := e.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	// Build a branch but don't wait for it; with empty work it may finish
	// fast, so use a fresh engine that never ran as the "branch".
	cfg := e.Config()
	cfg.Kind = BranchLoop
	cfg.LoopID = storage.LoopID(7)
	br, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer br.Stop()
	if err := e.AdoptBranch(br); err == nil {
		t.Fatal("adopting an unconverged branch should fail")
	}
}

func TestAdoptBranchRequiresMainLoop(t *testing.T) {
	e := newSSSPEngine(t, 2, 8, storage.NewMVCCStore(), storage.MainLoop)
	e.Start()
	defer e.Stop()
	e.Ingest(stream.AddEdge(1, 0, 1))
	if err := e.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	br, _, err := e.ForkBranch(storage.LoopID(1), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer br.Stop()
	if err := br.WaitDone(waitFor); err != nil {
		t.Fatal(err)
	}
	if err := br.AdoptBranch(br); err == nil {
		t.Fatal("branch loops must not accept merges")
	}
}

func TestAdoptBranchDetectsConflictingIngest(t *testing.T) {
	tuples := datasets.PowerLawGraph(60, 3, 53)
	e := newSSSPEngine(t, 2, 8, storage.NewMVCCStore(), storage.MainLoop)
	e.Start()
	defer e.Stop()
	e.IngestAll(tuples)
	if err := e.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	br, _, err := e.ForkBranch(storage.LoopID(1), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer br.Stop()
	if err := br.WaitDone(waitFor); err != nil {
		t.Fatal(err)
	}
	// New input after the branch converged but before the merge: the merge
	// must refuse rather than clobber fresher state.
	e.Ingest(stream.AddEdge(1<<40, 0, 59))
	err = e.AdoptBranch(br)
	if err == nil {
		t.Fatal("merge with concurrent ingest should fail")
	}
	if !errors.Is(err, ErrMergeConflict) {
		t.Fatalf("err = %v; want ErrMergeConflict", err)
	}
	// The loop is still correct afterwards.
	if err := e.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	all := append(append([]stream.Tuple{}, tuples...), stream.AddEdge(1<<40, 0, 59))
	checkSSSP(t, e, all)
}
