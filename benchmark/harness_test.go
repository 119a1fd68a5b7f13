package main

import (
	"regexp"
	"testing"
	"time"
)

// scriptedJournal answers JournalSeq and JournalSize from a script of
// (ingested, committed) states, advancing one state per call — the system
// keeps moving between the harness's two reads.
type scriptedJournal struct {
	states [][2]uint64 // ingested, committed
	call   int
}

func (j *scriptedJournal) state() [2]uint64 {
	s := j.states[min(j.call, len(j.states)-1)]
	j.call++
	return s
}

func (j *scriptedJournal) JournalSeq() uint64 { return j.state()[0] }

func (j *scriptedJournal) JournalSize() (int, int) {
	s := j.state()
	return int(s[0] - s[1]), 0
}

func TestWatermarkIsConservative(t *testing.T) {
	for _, tc := range []struct {
		name   string
		states [][2]uint64
		want   uint64
	}{
		{"idle", [][2]uint64{{100, 100}, {100, 100}}, 100},
		// 64 more inputs arrive between the reads and none commits: reading
		// the size first would report 164 committed.
		{"ingest between reads", [][2]uint64{{100, 100}, {164, 100}}, 36},
		{"commit between reads", [][2]uint64{{100, 40}, {100, 90}}, 90},
		{"more uncommitted than the sequence read", [][2]uint64{{10, 0}, {50, 0}}, 0},
	} {
		j := &scriptedJournal{states: tc.states}
		got := committed(j)
		if got != tc.want {
			t.Errorf("%s: committed = %d, want %d", tc.name, got, tc.want)
		}
		if truth := tc.states[len(tc.states)-1][1]; got > truth {
			t.Errorf("%s: watermark %d ahead of the %d inputs really committed", tc.name, got, truth)
		}
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for n, want := range map[int]float64{1000: 99, 999: 95, 200: 95, 199: 90, 100: 90, 99: 75, 40: 75, 39: 50, 1: 50} {
		if got := tailPercentile(n, 99); got != want {
			t.Errorf("tailPercentile(%d, 99) = %g, want %g", n, got, want)
		}
		if got := tailPercentile(n, singleRunTail); got != min(want, singleRunTail) {
			t.Errorf("tailPercentile(%d, %d) = %g, want %g", n, singleRunTail, got, min(want, singleRunTail))
		}
	}
	s := summarize([]float64{5, 1, 4, 2, 3}, 99)
	if s.n != 5 || s.p50 != 3 || s.tailAt != 50 {
		t.Errorf("summarize = %+v", s)
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := iqrShare(v), (8.25-2.75)/5.5; got != want {
		t.Errorf("iqrShare = %v, want %v", got, want)
	}
}

// A system that stalls retires every batch late; because latency is taken
// from the due time, the batches due first waited longest.
func TestCommitLatencyIsTakenFromDueTime(t *testing.T) {
	t0 := time.Now()
	tr := newCommitTracker(85*time.Millisecond, nil)
	for k := 0; k < 3; k++ {
		tr.add(int64(k+1), uint64(64*(k+1)), t0.Add(time.Duration(k)*10*time.Millisecond))
		tr.ingested(int64(k+1), t0.Add(95*time.Millisecond)) // the stalled system admitted all three late
	}
	tr.observe(63, t0.Add(50*time.Millisecond)) // watermark short of the first batch
	if tr.outstanding() != 3 {
		t.Fatalf("outstanding = %d before the watermark reached a batch", tr.outstanding())
	}
	tr.observe(128, t0.Add(100*time.Millisecond))
	lat, missed := tr.results()
	if len(lat) != 2 || lat[0] != 100 || lat[1] != 90 {
		t.Fatalf("latencies = %v, want [100 90]", lat)
	}
	if missed != 3 { // two over the 85 ms limit, one never committed
		t.Errorf("missed = %d, want 3", missed)
	}
	if s := tr.stalledFor(t0.Add(11 * time.Second)); s < 10*time.Second {
		t.Errorf("stalledFor = %v with a batch pending since t0+100ms", s)
	}
}

// The window is cut into whole cycles of about cycleSeconds, and the
// operation count is known before the run starts.
func TestPlanCutsTheWindowIntoCycles(t *testing.T) {
	w := workload{batch: 64, pacedRate: 4000, queryRate: 5}
	for window, cycles := range map[float64]int{42: 8, 21: 4, 1: 1, 0.1: 1} {
		p := planOps(w, window)
		if p.cycles != cycles {
			t.Errorf("planOps(%g s): %d cycles, want %d", window, p.cycles, cycles)
		}
		if got, want := p.ops(), cycles*(p.batches+p.queries)+1; got != want {
			t.Errorf("planOps(%g s).ops() = %d, want %d", window, got, want)
		}
	}
	if p := planOps(w, 42); p.batches != 82 || p.queries != 9 || p.satFor != 2100*time.Millisecond {
		t.Errorf("planOps(42 s) = %+v", p)
	}
	w.cycle = 21
	if p := planOps(w, 42); p.cycles != 2 || p.satFor != 8400*time.Millisecond {
		t.Errorf("planOps(42 s) with 21 s cycles = %+v", p)
	}
}

// A host a quarter slower than nominal reads 1.25, and a run that took no
// host units is left as measured.
func TestHostFactor(t *testing.T) {
	slow := hostNominalMS * 1.25
	if got := hostFactor([]float64{slow, 100, slow, 1, slow}); got != 1.25 {
		t.Errorf("hostFactor = %v, want 1.25", got)
	}
	if got := hostFactor(nil); got != 1 {
		t.Errorf("hostFactor(nil) = %v, want 1", got)
	}
}

func TestFailedCheckFailsEveryOperation(t *testing.T) {
	man, err := loadManifest()
	if err != nil {
		t.Fatal(err)
	}
	res := &runResult{correct: false, attempted: 500, failed: 3, endToEnd: map[string]float64{}}
	if rep := makeReport(man, false, res); rep.Correct || rep.Failed != 500 || rep.Attempted != 500 {
		t.Errorf("report = %+v, want all 500 failed", rep)
	}
	res.correct = true
	if rep := makeReport(man, false, res); rep.Failed != 3 {
		t.Errorf("failed = %d on a correct run, want 3", rep.Failed)
	}
}

// A dry run of both passes on a tiny workload must produce exactly the
// metrics BENCHMARK.json names.
func TestDryRunPrintsEveryMetric(t *testing.T) {
	man, err := loadManifest()
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	probeCalls, probeFor = 200, 5*time.Millisecond
	dry := workload{name: "dry", vertices: 60, degree: 3, batch: 8, pacedRate: 2000, queryRate: 20, staleEvery: 2,
		commitLimit: 5 * time.Second, queryLimit: 5 * time.Second}
	for _, traced := range []bool{false, true} {
		res, err := run(runConfig{w: dry, seed: 1, seconds: 1, traced: traced, outDir: t.TempDir()})
		if err != nil {
			t.Fatalf("traced=%v: %v", traced, err)
		}
		if !res.correct || res.failed != 0 || res.attempted == 0 {
			t.Errorf("traced=%v: correct %v, %d of %d failed", traced, res.correct, res.failed, res.attempted)
		}
		defs, got := man.EndToEnd, res.endToEnd
		if traced {
			defs, got = man.PerLayer, res.layers
		}
		listed := map[string]bool{}
		for _, d := range defs {
			listed[d.Name] = true
			if !name.MatchString(d.Name) {
				t.Errorf("metric name %q is not a valid name", d.Name)
			}
			if _, ok := got[d.Name]; !ok {
				t.Errorf("traced=%v: run did not produce %s", traced, d.Name)
			}
		}
		for k := range got {
			if !listed[k] {
				t.Errorf("traced=%v: run produced %s, which BENCHMARK.json does not list", traced, k)
			}
		}
	}
	for _, listed := range man.Workloads {
		if w, ok := findWorkload(listed.Name); !ok || w.why != listed.Why {
			t.Errorf("BENCHMARK.json lists workload %q (%q); the harness has %q", listed.Name, listed.Why, w.why)
		}
	}
}
