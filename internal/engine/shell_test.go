package engine

import (
	"math/rand"
	"slices"
	"testing"

	"tornado/internal/datasets"
	"tornado/internal/lamport"
	"tornado/internal/storage"
	"tornado/internal/stream"
)

// reachableGraph is PowerLawGraph(n, 3, seed) plus a binary tree rooted at the
// source, so every vertex sits within log2(n) hops of vertex 0: a settled main
// loop has committed each of them, and a loop bootstrapping from its
// snapshot finds a stored version for every vertex it hosts. The power-law
// edges come first; churnOf draws from them only.
func reachableGraph(n int, seed int64) (all []stream.Tuple, powerLaw int) {
	all = datasets.PowerLawGraph(n, 3, seed)
	powerLaw = len(all)
	ts := stream.Timestamp(len(all))
	for v := 1; v < n; v++ {
		ts++
		all = append(all, stream.AddEdge(ts, stream.VertexID((v-1)/2), stream.VertexID(v)))
	}
	return all, powerLaw
}

// churnOf removes k seeded-random power-law edges of g, stamped after every
// tuple of g, and returns the removals and the re-adds that undo them.
func churnOf(g []stream.Tuple, powerLaw, k int, seed int64) (removes, readds []stream.Tuple) {
	ts := stream.Timestamp(len(g))
	for _, i := range rand.New(rand.NewSource(seed)).Perm(powerLaw)[:k] {
		ts++
		removes = append(removes, stream.RemoveEdge(ts, g[i].Src, g[i].Dst))
	}
	for _, r := range removes {
		ts++
		readds = append(readds, stream.AddEdge(ts, r.Src, r.Dst))
	}
	return removes, readds
}

// hostedTotal is the number of vertices the loop's processors host.
func hostedTotal(e *Engine) int64 {
	n := 0
	for _, l := range e.PartitionLoads() {
		n += l.Vertices
	}
	return int64(n)
}

// shellCount counts the unloaded shells of a stopped loop.
func shellCount(e *Engine) int64 {
	n := int64(0)
	for _, p := range e.cur().procs {
		for _, v := range p.vertices {
			if v.unloaded {
				n++
			}
		}
	}
	return n
}

// TestBranchHostsShells is the harness's query in miniature: a branch forked
// behind 64 churn tuples that the main loop has not absorbed yet reaches the
// exact fixed point, while the vertices it hosts only to answer PREPAREs or
// to absorb valueless COMMITs are never decoded. Every hosted vertex has a
// stored version (reachableGraph), so the hosted count splits exactly into
// versions decoded and shells.
func TestBranchHostsShells(t *testing.T) {
	g, powerLaw := reachableGraph(1000, 5)
	removes, _ := churnOf(g, powerLaw, 64, 7)
	e := newSSSPEngine(t, 4, 64, storage.NewMVCCStore(), storage.MainLoop)
	e.Start()
	defer e.Stop()
	e.IngestAll(g)
	// Settled, not just quiescent: the fork iteration must cover the whole
	// graph, or the fork seeds (and so loads) every vertex committed above it.
	// The hold then pins the frontier below the churn until the fork is
	// taken: a main loop that absorbed the churn first would leave the branch
	// nothing to compute (and a fork from a moving frontier can lose a
	// gather, ROADMAP 1(b)).
	if err := e.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	release := e.HoldQuiesce()
	e.IngestAll(removes)
	br, _, err := e.ForkBranch(storage.LoopID(1), nil, nil)
	release()
	if err != nil {
		t.Fatal(err)
	}
	defer br.Stop()
	if err := br.WaitDone(waitFor); err != nil {
		t.Fatal(err)
	}
	checkSSSP(t, br, slices.Concat(g, removes))

	s, hosted := br.StatsSnapshot(), hostedTotal(br)
	if s.SnapshotLoads >= hosted {
		t.Fatalf("branch decoded %d stored versions for %d hosted vertices; want fewer", s.SnapshotLoads, hosted)
	}
	checkQuiescent(t, br) // audits the shells, and stops the branch
	if shells := shellCount(br); shells == 0 || s.SnapshotLoads+shells != hosted {
		t.Fatalf("branch hosts %d vertices: %d decoded, %d shells; want every vertex one or the other, some shells",
			hosted, s.SnapshotLoads, shells)
	}
	t.Logf("branch: %d commits, %d hosted, %d decoded", s.Commits, hosted, s.SnapshotLoads)
}

// TestShellLoadsStoredTargets drives one branch processor by hand: a PREPARE
// hosts vertex 1 as a shell, and a valued COMMIT that follows loads it, so
// its own update prepares — and then updates — the targets its stored
// version holds, which the shell never had.
func TestShellLoadsStoredTargets(t *testing.T) {
	store := storage.NewMVCCStore()
	e := newSSSPEngine(t, 1, 8, store, storage.MainLoop)
	e.Start()
	defer e.Stop()
	// 0 -> 4 -> 1 -> {2, 3}: vertex 1 settles at distance 2.
	e.IngestAll([]stream.Tuple{stream.AddEdge(1, 0, 4), stream.AddEdge(2, 4, 1), stream.AddEdge(3, 1, 2), stream.AddEdge(4, 1, 3)})
	if err := e.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	handle := store.Snapshot(storage.MainLoop)
	defer handle.Release()
	br, err := New(Config{Processors: 1, DelayBound: 1 << 40, Kind: BranchLoop, LoopID: storage.LoopID(1), Store: store,
		Program: ssspProg{source: 0}, Seed: 1, snapshot: &SnapshotSource{UpTo: e.Notified(), Handle: handle}})
	if err != nil {
		t.Fatal(err)
	}
	defer br.Stop()
	p := br.proc(0) // never started: the test is its goroutine

	p.handlePrepare(msgPrepare{From: 0, To: 1, Stamp: lamport.Stamp{Time: 1, Owner: 0}})
	v := p.vertices[1]
	if !v.unloaded || v.state != nil || len(v.out) != 0 || br.StatsSnapshot().SnapshotLoads != 0 {
		t.Fatalf("a PREPARE loaded vertex 1: unloaded %v, state %v, %d out records", v.unloaded, v.state, len(v.out))
	}
	dropLocal(p) // the ACK to 0

	// A new shortest path 0 -> 1 (the producer's emission at distance 0).
	p.handleUpdate(msgUpdate{From: 0, To: 1, Iteration: 0, Token: p.tk.AcquireFloor(1), Value: int64(0), HasValue: true})
	p.publish() // the window's ledger reaches the counters
	if v.unloaded || br.StatsSnapshot().SnapshotLoads != 1 {
		t.Fatalf("a valued COMMIT left vertex 1 unloaded (%v) after %d loads", v.unloaded, br.StatsSnapshot().SnapshotLoads)
	}
	w := p.takeLocal()
	var prepared []stream.VertexID
	for _, m := range w.Prepares {
		prepared = append(prepared, m.To)
	}
	p.putLocal(w)
	if !slices.Equal(prepared, []stream.VertexID{2, 3}) {
		t.Fatalf("vertex 1 prepared %v; want its stored targets [2 3]", prepared)
	}
	for _, c := range prepared {
		p.handleAck(msgAck{From: c, To: 1, Iteration: 0})
	}
	p.publish() // the commit's update tokens reach the tracker
	w = p.takeLocal()
	got := map[stream.VertexID]any{}
	for _, m := range w.Updates {
		got[m.To] = m.Value
		p.tk.Release(m.Token)
	}
	p.putLocal(w)
	if len(got) != 2 || got[2] != int64(1) || got[3] != int64(1) {
		t.Fatalf("vertex 1 committed updates %v; want distance 1 to both stored targets 2 and 3", got)
	}
}

// TestReshardedShellsSurviveScaleOut: a resharded main loop bootstraps from
// its own checkpoint, so it hosts shells too. A ScaleOut over them rests the
// loop and restarts it from the checkpoint, shells and all, and the churn
// after it, which sends every vertex a valued COMMIT, stays exact.
func TestReshardedShellsSurviveScaleOut(t *testing.T) {
	const n = 600
	g, powerLaw := reachableGraph(n, 11)
	removes, readds := churnOf(g, powerLaw, 64, 13)
	// After the move: the removed edges come back, and a shortcut from the
	// source puts every other vertex at distance 1.
	ts := readds[len(readds)-1].Time
	for v := stream.VertexID(1); v < n; v++ {
		ts++
		readds = append(readds, stream.AddEdge(ts, 0, v))
	}
	e := newElasticSSSP(t, 2, 4, 11)
	e.Start()
	defer e.Stop()
	e.IngestAll(g)
	if err := e.Reshard(2, waitFor); err != nil {
		t.Fatal(err)
	}
	e.IngestAll(removes)
	if err := e.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	// Every vertex has a checkpointed version, so whatever the loop hosts
	// beyond what it decoded is a shell.
	loads, hosted := e.StatsSnapshot().SnapshotLoads, hostedTotal(e)
	if loads >= hosted {
		t.Fatalf("resharded loop decoded %d versions for %d hosted vertices; want shells", loads, hosted)
	}
	if _, err := e.ScaleOut(-1); err != nil {
		t.Fatal(err)
	}
	e.IngestAll(readds)
	if err := e.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	checkSSSP(t, e, slices.Concat(g, removes, readds))
	checkQuiescent(t, e)
}

// TestDeltaBranchLoadsEveryVertex: a delta-mode branch keeps the eager
// bootstrap — loading re-queues a significant persisted pending — so every
// vertex it hosts is decoded on arrival.
func TestDeltaBranchLoadsEveryVertex(t *testing.T) {
	g, powerLaw := reachableGraph(600, 17)
	removes, _ := churnOf(g, powerLaw, 64, 19)
	e, err := New(Config{Processors: 4, DelayBound: 64, Kind: MainLoop, LoopID: storage.MainLoop,
		Store: storage.NewMVCCStore(), Delta: dssspProg{source: 0}, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	defer e.Stop()
	e.IngestAll(g)
	if err := e.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	release := e.HoldQuiesce() // the fork stays behind the churn, as above
	e.IngestAll(removes)
	br, _, err := e.ForkBranch(storage.LoopID(1), nil, nil)
	release()
	if err != nil {
		t.Fatal(err)
	}
	defer br.Stop()
	if err := br.WaitDone(waitFor); err != nil {
		t.Fatal(err)
	}
	checkDSSSP(t, br, slices.Concat(g, removes))
	if loads, hosted := br.StatsSnapshot().SnapshotLoads, hostedTotal(br); loads != hosted || hosted == 0 {
		t.Fatalf("delta branch decoded %d stored versions for %d hosted vertices; want all of them", loads, hosted)
	}
	checkQuiescent(t, br)
	if n := shellCount(br); n != 0 {
		t.Fatalf("delta branch holds %d shells", n)
	}
}
