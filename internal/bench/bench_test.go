package bench

import (
	"os"
	"strings"
	"testing"
	"time"
)

// The bench tests run every experiment at SmallScale and assert the paper's
// qualitative findings (the "shape") rather than absolute numbers.

func TestFig5aShape(t *testing.T) {
	rep, err := RunFig5a(SmallScale)
	if err != nil {
		t.Fatal(err)
	}
	approx, ok := rep.Approximate()
	if !ok {
		t.Fatal("no approximate row")
	}
	best, ok := rep.BestBatch()
	if !ok {
		t.Fatal("no batch rows")
	}
	// The approximate method must at least match the best batch
	// configuration (at laptop scale the two floors converge; see
	// EXPERIMENTS.md) and clearly beat the large-epoch batch.
	if approx.P99 > best.P99*3/2 {
		t.Fatalf("approximate p99 %v worse than best batch %v\n%s", approx.P99, best.P99, rep)
	}
	largest := rep.Rows[0]
	if approx.P99*2 > largest.P99 {
		t.Fatalf("approximate p99 %v not clearly better than large-epoch batch %v\n%s", approx.P99, largest.P99, rep)
	}
	if !strings.Contains(rep.String(), "sssp") {
		t.Fatal("report rendering broken")
	}
}

func TestFig5bShape(t *testing.T) {
	rep, err := RunFig5b(SmallScale)
	if err != nil {
		t.Fatal(err)
	}
	approx, _ := rep.Approximate()
	best, _ := rep.BestBatch()
	if approx.P99 > best.P99*3/2 {
		t.Fatalf("approximate p99 %v worse than best batch %v\n%s", approx.P99, best.P99, rep)
	}
}

func TestFig5cShape(t *testing.T) {
	rep, err := RunFig5c(SmallScale)
	if err != nil {
		t.Fatal(err)
	}
	approx, _ := rep.Approximate()
	best, _ := rep.BestBatch()
	// KMeans: the approximation does NOT deliver the big win — it must be
	// in the same ballpark as the best batch (the paper: "roughly equals
	// the smallest batch"), not orders of magnitude better.
	if approx.P99*20 < best.P99 {
		t.Fatalf("KMeans approximate %v unexpectedly dominates batch %v\n%s", approx.P99, best.P99, rep)
	}
}

func TestFig6Shape(t *testing.T) {
	rep, err := RunFig6(SmallScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Error) != 2 || len(rep.BranchTime) != 3 {
		t.Fatalf("series missing: %d error, %d branch", len(rep.Error), len(rep.BranchTime))
	}
	// Both rates' errors must decrease over the stream.
	for label, pts := range rep.Error {
		if len(pts) < 2 {
			t.Fatalf("%s: too few points", label)
		}
		if pts[len(pts)-1].Value >= pts[0].Value {
			t.Fatalf("%s: objective did not decrease: %+v", label, pts)
		}
	}
	// Tornado branch queries must beat the from-scratch batch at the last
	// probe (warm start).
	batch := rep.BranchTime["batch"]
	for _, label := range []string{"rate=0.5", "rate=0.1"} {
		series := rep.BranchTime[label]
		if series[len(series)-1].Value > batch[len(batch)-1].Value {
			t.Fatalf("%s branch time %v worse than batch %v\n%s",
				label, series[len(series)-1].Value, batch[len(batch)-1].Value, rep)
		}
	}
}

func TestFig7Shape(t *testing.T) {
	rep, err := RunFig7(SmallScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.StaticError) != 3 || len(rep.DynamicError) == 0 || len(rep.DynamicRate) == 0 {
		t.Fatal("series missing")
	}
	// The bold driver must end at least as well as the worst static rate
	// (in the paper it beats every static rate on drifting data).
	dyn, _ := rep.FinalDynamicError()
	worst := 0.0
	for label := range rep.StaticError {
		if v, _ := rep.FinalError(label); v > worst {
			worst = v
		}
	}
	if dyn > worst {
		t.Fatalf("bold driver final error %v worse than every static rate (worst %v)\n%s", dyn, worst, rep)
	}
	// The dynamic rate must actually move.
	first, last := rep.DynamicRate[0].Value, rep.DynamicRate[len(rep.DynamicRate)-1].Value
	moved := false
	for _, p := range rep.DynamicRate {
		if p.Value != first {
			moved = true
		}
	}
	_ = last
	if !moved {
		t.Fatal("bold-driver rate never adapted")
	}
}

func TestTable2Shape(t *testing.T) {
	rep, err := RunTable2(SmallScale)
	if err != nil {
		t.Fatal(err)
	}
	sync, _ := rep.Row(1)
	mid, _ := rep.Row(256)
	unbounded, _ := rep.Row(65536)
	if sync.Prepares != 0 {
		t.Fatalf("synchronous loop sent %d prepares; want 0\n%s", sync.Prepares, rep)
	}
	if mid.Prepares == 0 || unbounded.Prepares == 0 {
		t.Fatalf("asynchronous loops sent no prepares\n%s", rep)
	}
	// The synchronous loop converges in the fewest iterations (each one
	// batches all producer updates); the asynchronous loops spread over
	// many more. (The paper's additional 256 < 65536 ordering only appears
	// when the bound actually binds, which needs cluster-scale loops.)
	if sync.Iterations >= mid.Iterations || sync.Iterations >= unbounded.Iterations {
		t.Fatalf("iteration ordering wrong: sync=%d mid=%d unbounded=%d\n%s",
			sync.Iterations, mid.Iterations, unbounded.Iterations, rep)
	}
	for _, b := range delayBounds {
		if recs := rep.IterTimes[b]; len(recs) == 0 {
			t.Fatalf("no iteration records for bound %d", b)
		}
	}
}

func TestFig8bShape(t *testing.T) {
	rep, err := RunFig8b(SmallScale)
	if err != nil {
		t.Fatal(err)
	}
	sync, _ := rep.Time(1)
	unbounded, _ := rep.Time(65536)
	if sync <= 0 || unbounded <= 0 {
		t.Fatalf("branches did not run: %s", rep)
	}
	// The paper's wall-clock win for asynchronous loops under stragglers
	// needs real computation/communication overlap across machines; on an
	// in-process runtime we only assert both complete in the same regime
	// (see EXPERIMENTS.md for the discussion).
	if unbounded > sync*4 {
		t.Fatalf("unbounded %v pathologically slower than sync %v under straggler\n%s", unbounded, sync, rep)
	}
}

func TestFig8cShape(t *testing.T) {
	rep, err := RunFig8c(SmallScale)
	if err != nil {
		t.Fatal(err)
	}
	sync, _ := rep.Row(1)
	unbounded, _ := rep.Row(65536)
	// The unbounded loop keeps computing with the master dead — it must
	// make far more progress than the synchronous loop, which stalls.
	if unbounded.DuringFailure < 4*sync.DuringFailure && !unbounded.CompletedDuringFailure {
		t.Fatalf("unbounded made %d updates during master death vs sync %d\n%s",
			unbounded.DuringFailure, sync.DuringFailure, rep)
	}
	// All loops finish all work after recovery.
	for _, row := range rep.Rows {
		if row.Total < sync.Total/2 {
			t.Fatalf("bound %d lost work: %d total updates\n%s", row.Bound, row.Total, rep)
		}
	}
}

func TestFig8dShape(t *testing.T) {
	rep, err := RunFig8d(SmallScale)
	if err != nil {
		t.Fatal(err)
	}
	// With a processor dead, no loop completes during the failure window
	// (the effect propagates through prepare dependencies), and every loop
	// recovers to full completion.
	for _, row := range rep.Rows {
		if row.CompletedDuringFailure {
			t.Fatalf("bound %d completed with a dead processor\n%s", row.Bound, rep)
		}
		if row.Total == 0 {
			t.Fatalf("bound %d never recovered\n%s", row.Bound, rep)
		}
	}
}

func TestFig9Shape(t *testing.T) {
	small := SmallScale
	small.WorkerSweep = []int{1, 4}
	rep, err := RunFig9(small)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"sssp", "pagerank", "kmeans", "svm"} {
		series := rep.Series(name)
		if len(series) != 2 {
			t.Fatalf("%s: %d rows; want 2", name, len(series))
		}
		if series[0].Speedup != 1.0 {
			t.Fatalf("%s: base speedup %v; want 1.0", name, series[0].Speedup)
		}
	}
}

func TestTable3Shape(t *testing.T) {
	rep, err := RunTable3(SmallScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 16 {
		t.Fatalf("%d rows; want 16\n%s", len(rep.Rows), rep)
	}
	// Tornado must win against recomputation once a meaningful amount of
	// input has accumulated; at the 1% point both have done almost no work
	// yet, so a tie is acceptable there. The race detector slows Tornado's
	// goroutines far more than the baselines' loops, so under it only the
	// modelled quantities below are asserted.
	if !raceBuild {
		for _, row := range rep.Rows {
			slack := time.Duration(1)
			if row.Frac < 0.05 {
				slack = 2
			}
			if row.Tornado.Latency > row.Spark.Latency*slack {
				t.Fatalf("%s@%v: tornado %v slower than spark-like %v\n%s",
					row.Workload, row.Frac, row.Tornado.Latency, row.Spark.Latency, rep)
			}
			if row.Tornado.Latency > row.GraphLab.Latency*slack {
				t.Fatalf("%s@%v: tornado %v slower than graphlab-like %v\n%s",
					row.Workload, row.Frac, row.Tornado.Latency, row.GraphLab.Latency, rep)
			}
		}
	}
	// Naiad-like KMeans must hit the memory wall at the later fractions.
	last, ok := rep.Row("kmeans", 0.20)
	if !ok || !last.Naiad.OOM {
		t.Fatalf("naiad-like kmeans at 20%% should be OOM\n%s", rep)
	}
	// Spark-like (spill) and GraphLab-like (in memory) run the same
	// recompute, so their wall clocks land about 1 % apart, too close to
	// order; the spill reload is the modelled difference. Spark-like must
	// reload every accumulated tuple and GraphLab-like none, at equal work.
	for _, row := range rep.Rows {
		sp, gl := row.Spark.Stats, row.GraphLab.Stats
		if sp.Reloaded != row.Tuples || gl.Reloaded != 0 {
			t.Fatalf("%s@%v: spark-like reloaded %d and graphlab-like %d of %d tuples; want all and none\n%s",
				row.Workload, row.Frac, sp.Reloaded, gl.Reloaded, row.Tuples, rep)
		}
		if sp.Iterations != gl.Iterations || sp.Rounds != gl.Rounds {
			t.Fatalf("%s@%v: spark-like ran %d iterations in %d rounds, graphlab-like %d in %d; want equal work\n%s",
				row.Workload, row.Frac, sp.Iterations, sp.Rounds, gl.Iterations, gl.Rounds, rep)
		}
	}
}

func TestAblations(t *testing.T) {
	rep, err := RunAblations(SmallScale)
	if err != nil {
		t.Fatal(err)
	}
	// Prepare-skip: the optimized synchronous loop sends zero prepares;
	// disabling the optimization makes it pay the full protocol.
	on, _ := rep.Find("prepare-skip", "on")
	off, ok := rep.Find("prepare-skip", "off")
	if !ok {
		t.Fatalf("missing rows: %s", rep)
	}
	if on.Prepares != 0 {
		t.Fatalf("optimized sync loop sent %d prepares\n%s", on.Prepares, rep)
	}
	if off.Prepares == 0 {
		t.Fatalf("de-optimized sync loop sent no prepares\n%s", rep)
	}
	// Journal pruning: a settled, pruned journal is empty; without pruning
	// it retains the whole stream.
	jOn, _ := rep.Find("journal-prune", "on")
	jOff, _ := rep.Find("journal-prune", "off")
	if jOn.Updates != 0 {
		t.Fatalf("pruned journal retained %d entries\n%s", jOn.Updates, rep)
	}
	if jOff.Updates == 0 {
		t.Fatalf("unpruned journal retained nothing\n%s", rep)
	}
	// Store backend: both rows exist and the loop did the same work.
	mem, _ := rep.Find("store-backend", "mem")
	disk, ok := rep.Find("store-backend", "disk")
	if !ok || mem.Updates == 0 || disk.Updates == 0 {
		t.Fatalf("store ablation incomplete\n%s", rep)
	}
}

func TestScaleByName(t *testing.T) {
	if _, err := ScaleByName("nope"); err == nil {
		t.Fatal("unknown scale accepted")
	}
	s, err := ScaleByName("small")
	if err != nil || s.Name != "small" {
		t.Fatalf("small scale: %+v, %v", s, err)
	}
	f, err := ScaleByName("")
	if err != nil || f.Name != "full" {
		t.Fatalf("default scale: %+v, %v", f, err)
	}
}

func TestDeepStreamShape(t *testing.T) {
	tuples := deepStream(10)
	if len(tuples) != 20 {
		t.Fatalf("len = %d; want 20", len(tuples))
	}
}

func TestEpochSizes(t *testing.T) {
	sizes := epochSizesFor(1000)
	for i := 1; i < len(sizes); i++ {
		if sizes[i] >= sizes[i-1] {
			t.Fatalf("epoch sizes not descending: %v", sizes)
		}
	}
	if sizes[0] != 500 {
		t.Fatalf("largest epoch %d; want 500", sizes[0])
	}
}

func TestThroughputShape(t *testing.T) {
	rep, err := RunThroughput(SmallScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 2 || rep.Rows[0].Mode != "unbatched" || rep.Rows[1].Mode != "batched" {
		t.Fatalf("rows malformed\n%s", rep)
	}
	b := rep.Rows[1]
	// The paper-shape claim: multi-message frames amortize per-frame cost.
	// (Ack suppression and bounded ledger maps are the wire's, checked by
	// the transport package's ledger tests.)
	if b.PayloadsPerFrame < 2 {
		t.Fatalf("payloads/frame = %.2f; batching is not amortizing\n%s", b.PayloadsPerFrame, rep)
	}
	if rep.Speedup < 1.2 {
		t.Fatalf("speedup %.2fx; batching should clearly beat unbatched\n%s", rep.Speedup, rep)
	}
}

func TestOverloadShape(t *testing.T) {
	rep, err := RunOverload(SmallScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 2 || rep.Rows[0].Mode != "baseline" || rep.Rows[1].Mode != "overload" {
		t.Fatalf("rows malformed\n%s", rep)
	}
	o := rep.Rows[1]
	// The backpressure claims: under a slowed consumer the bounded queues
	// hold (the gate never exceeds its capacity, the deepest inbox stays
	// near its watermark), the producer visibly pays for the lag, and the
	// loop still makes progress.
	if o.GatePeak > o.GateCapacity {
		t.Fatalf("gate peak %d exceeded capacity %d\n%s", o.GatePeak, o.GateCapacity, rep)
	}
	if o.InboxPeak > 4*o.InboxHigh {
		t.Fatalf("inbox peaked at %d, far past the %d watermark\n%s", o.InboxPeak, o.InboxHigh, rep)
	}
	if o.Updates == 0 {
		t.Fatalf("no progress under overload\n%s", rep)
	}
	if rep.Knee <= 0 {
		t.Fatalf("knee not computed\n%s", rep)
	}
}

// TestMain exists for the wire benchmark's cluster leg, which re-executes
// this test binary as worker processes; the hook takes over (and exits) when
// the join environment variable is set.
func TestMain(m *testing.M) {
	WireWorkerHook()
	os.Exit(m.Run())
}

func TestWireShape(t *testing.T) {
	if testing.Short() {
		t.Skip("wire bench spawns worker processes; skipped in -short mode")
	}
	rep, err := RunWire(SmallScale)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Failed(); err != nil {
		t.Fatalf("%v\n%s", err, rep)
	}
	if len(rep.Rows) != 4 {
		t.Fatalf("want 4 legs, got %d\n%s", len(rep.Rows), rep)
	}
	// The wire costs real serialization: it must carry frames and be no
	// faster than the in-memory transport on the identical workload.
	if rep.OverheadX < 1 {
		t.Fatalf("wire overhead %.2fx < 1: the socket path cannot beat function calls\n%s", rep.OverheadX, rep)
	}
	storm := rep.Rows[2]
	if storm.RecoverySeconds <= 0 || storm.Reconnects == 0 {
		t.Fatalf("storm leg did not exercise recovery (recovery=%.2fs reconnects=%d)\n%s",
			storm.RecoverySeconds, storm.Reconnects, rep)
	}
	if !strings.Contains(rep.String(), "cluster") {
		t.Fatal("report rendering broken")
	}
}

func TestElasticWaveShape(t *testing.T) {
	// The generator's load skew must be a skew of DISTINCT touched sources
	// (commit coalescing makes repeated touches of one vertex cheap), the
	// churn must be range-local, and every add must be paired with its own
	// retraction so the graph never grows.
	const n = 600
	gen := newElasticGen(n, 7)
	w := gen.wave(240, 0.8)
	hot, cold := map[int]bool{}, map[int]bool{}
	var lastTS int64 = -1
	for i, tup := range w {
		if int64(tup.Time) <= lastTS {
			t.Fatalf("timestamps not strictly increasing at %d", i)
		}
		lastTS = int64(tup.Time)
		src, dst := int(tup.Src), int(tup.Dst)
		if (src < n/2) != (dst < n/2) {
			t.Fatalf("churn edge %d->%d crosses the range boundary", src, dst)
		}
		if i%2 == 0 {
			if src < n/2 {
				hot[src] = true
			} else {
				cold[src] = true
			}
		} else if tup.Src != w[i-1].Src || tup.Dst != w[i-1].Dst {
			t.Fatalf("tuple %d does not retract the preceding add", i)
		}
	}
	share := float64(len(hot)) / float64(len(hot)+len(cold))
	if share < 0.7 || share > 0.9 {
		t.Fatalf("distinct hot-source share %.2f outside [0.7, 0.9]", share)
	}
	if len(w)%2 != 0 {
		t.Fatalf("wave length %d not an add/remove pairing", len(w))
	}
}
