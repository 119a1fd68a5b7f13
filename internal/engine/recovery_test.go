package engine

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"tornado/internal/datasets"
	"tornado/internal/obs"
	"tornado/internal/storage"
	"tornado/internal/stream"
)

func waitUntil(t *testing.T, timeout time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCrashDiscardsStateManualRecovery checks true crash semantics without a
// supervisor: a crashed processor's in-memory state and pending inputs are
// really gone (the loop cannot quiesce — the dead tokens pin the frontier),
// and a manual RecoverFromCheckpoint restarts from the last terminated
// iteration and still reaches the exact fixed point.
func TestCrashDiscardsStateManualRecovery(t *testing.T) {
	tuples := datasets.PowerLawGraph(300, 3, 11)
	store := storage.NewMVCCStore()
	e := newSSSPEngine(t, 4, 8, store, storage.MainLoop)
	e.Start()
	defer e.Stop()

	half := len(tuples) / 2
	e.IngestAll(tuples[:half])
	if err := e.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}

	// Pause processor 2, queue inputs against it, then crash it: the queued
	// inputs (and their obligation tokens) deterministically die with it.
	e.PauseProcessor(2)
	e.IngestAll(tuples[half:])
	e.CrashProcessor(2)

	if err := e.WaitQuiesce(300 * time.Millisecond); err == nil {
		t.Fatal("loop quiesced despite a crashed processor holding obligations")
	}
	if s := e.StatsSnapshot(); s.Crashes != 1 {
		t.Fatalf("Crashes = %d, want 1", s.Crashes)
	}

	if !e.RecoverFromCheckpoint() {
		t.Fatal("RecoverFromCheckpoint declined")
	}
	if err := e.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	checkSSSP(t, e, tuples)
	s := e.StatsSnapshot()
	if s.Recoveries != 1 || s.Generation != 1 {
		t.Fatalf("Recoveries = %d, Generation = %d, want 1, 1", s.Recoveries, s.Generation)
	}

	// The recovered loop keeps working: more inputs land correctly.
	extra := datasets.PowerLawGraph(40, 2, 12)
	for i := range extra {
		extra[i].Src += 5000
		extra[i].Dst += 5000
	}
	e.IngestAll(extra)
	if err := e.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	checkSSSP(t, e, append(append([]stream.Tuple{}, tuples...), extra...))
}

// TestSupervisorAutoRecovery crashes a processor mid-run and asserts the
// heartbeat supervisor detects the failure and restarts the loop from the
// checkpoint without any manual intervention — and that the whole episode is
// visible in the /metrics exposition (recoveries counter, MTTR histogram).
func TestSupervisorAutoRecovery(t *testing.T) {
	tuples := datasets.PowerLawGraph(300, 3, 21)
	hub := obs.NewHub(0)
	e, err := New(Config{
		Processors:        4,
		DelayBound:        8,
		Kind:              MainLoop,
		LoopID:            storage.MainLoop,
		Store:             storage.NewMVCCStore(),
		Program:           ssspProg{source: 0},
		Seed:              21,
		HeartbeatInterval: 2 * time.Millisecond,
		Obs:               hub,
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
	e.PauseProcessor(1)
	e.IngestAll(tuples[half:])
	e.CrashProcessor(1)

	// No manual recovery: quiescence is only reachable through the
	// supervisor detecting the missed heartbeats and restarting the loop.
	if err := e.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	checkSSSP(t, e, tuples)
	s := e.StatsSnapshot()
	if s.Recoveries < 1 || s.Generation < 1 {
		t.Fatalf("Recoveries = %d, Generation = %d, want >= 1", s.Recoveries, s.Generation)
	}

	// The recovery log tells the story: crash, suspicion, recovery.
	kinds := make(map[string]int)
	for _, ev := range e.RecoveryLog() {
		kinds[ev.Kind]++
	}
	for _, k := range []string{EventCrash, EventSuspect, EventRecovery} {
		if kinds[k] == 0 {
			t.Fatalf("recovery log has no %q event: %+v", k, e.RecoveryLog())
		}
	}

	var buf bytes.Buffer
	if err := hub.Registry.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	exp := buf.String()
	for _, metric := range []string{"tornado_crashes_total", "tornado_recoveries_total", "tornado_quarantined_processors", "tornado_recovery_seconds"} {
		if !strings.Contains(exp, metric) {
			t.Fatalf("/metrics lacks %s:\n%s", metric, exp)
		}
	}
	// The MTTR histogram must have observed the recovery.
	sawObservation := false
	for _, line := range strings.Split(exp, "\n") {
		if strings.HasPrefix(line, "tornado_recovery_seconds_count") && !strings.HasSuffix(line, " 0") {
			sawObservation = true
		}
	}
	if !sawObservation {
		t.Fatalf("tornado_recovery_seconds histogram recorded nothing:\n%s", exp)
	}
	checkQuiescent(t, e)
}

// TestSupervisorRecoversCrashedMaster crashes the master: termination
// notifications stop, so a bounded loop eventually stalls; the supervisor
// must notice the silent master and restart the loop.
func TestSupervisorRecoversCrashedMaster(t *testing.T) {
	tuples := datasets.PowerLawGraph(200, 3, 31)
	e, err := New(Config{
		Processors:        3,
		DelayBound:        4,
		Kind:              MainLoop,
		LoopID:            storage.MainLoop,
		Store:             storage.NewMVCCStore(),
		Program:           ssspProg{source: 0},
		Seed:              31,
		HeartbeatInterval: 2 * time.Millisecond,
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
	if err := e.WaitSettled(waitFor); err != nil {
		t.Fatal(err)
	}
	checkSSSP(t, e, tuples)
	if s := e.StatsSnapshot(); s.Recoveries < 1 {
		t.Fatalf("Recoveries = %d, want >= 1", s.Recoveries)
	}
	checkQuiescent(t, e)
}

// TestFlappingProcessorQuarantined crashes the same processor repeatedly;
// after MaxRestarts restarts inside the window the supervisor must quarantine
// it, remap its partition onto the survivors, and the loop must still reach
// the exact fixed point without it.
func TestFlappingProcessorQuarantined(t *testing.T) {
	tuples := datasets.PowerLawGraph(300, 3, 41)
	e, err := New(Config{
		Processors:        4,
		DelayBound:        8,
		Kind:              MainLoop,
		LoopID:            storage.MainLoop,
		Store:             storage.NewMVCCStore(),
		Program:           ssspProg{source: 0},
		Seed:              41,
		HeartbeatInterval: 10 * time.Millisecond,
		suspectAfter:      5,
		maxRestarts:       2,
		restartWindow:     time.Minute,
		restartBackoff:    time.Millisecond,
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

	// Crash processor 2 once per recovered incarnation until it exceeds its
	// restart budget.
	for round := 0; round < 3; round++ {
		before := e.StatsSnapshot().Recoveries
		e.CrashProcessor(2)
		waitUntil(t, waitFor, func() bool { return e.StatsSnapshot().Recoveries > before },
			fmt.Sprintf("round %d: supervisor never recovered the crash", round))
	}

	quarantined := e.Quarantined()
	found := false
	for _, i := range quarantined {
		if i == 2 {
			found = true
		}
	}
	if !found {
		t.Fatalf("processor 2 not quarantined after 3 crashes (quarantined: %v)", quarantined)
	}
	if s := e.StatsSnapshot(); s.Quarantined < 1 {
		t.Fatalf("StatsSnapshot.Quarantined = %d, want >= 1", s.Quarantined)
	}

	// The survivors absorb the quarantined partition and finish the job.
	e.IngestAll(tuples[half:])
	if err := e.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	checkSSSP(t, e, tuples)
	if load := e.LoadStats(); load[2] != 0 {
		t.Fatalf("quarantined processor reports load %d, want 0 (loads: %v)", load[2], load)
	}
	kinds := make(map[string]int)
	for _, ev := range e.RecoveryLog() {
		kinds[ev.Kind]++
	}
	if kinds[EventQuarantine] == 0 {
		t.Fatalf("no quarantine event in recovery log: %+v", e.RecoveryLog())
	}
	checkQuiescent(t, e)
}

// TestFaultPlanSchedule arms a deterministic chaos schedule — crash a
// processor at iteration 1, the master at iteration 3, and a processor in
// the middle of a branch fork — and asserts both the main loop and the
// branch end at the exact fixed point.
func TestFaultPlanSchedule(t *testing.T) {
	tuples := datasets.PowerLawGraph(300, 3, 51)
	e, err := New(Config{
		Processors:        4,
		DelayBound:        8,
		Kind:              MainLoop,
		LoopID:            storage.MainLoop,
		Store:             storage.NewMVCCStore(),
		Program:           ssspProg{source: 0},
		Seed:              51,
		HeartbeatInterval: 2 * time.Millisecond,
		restartBackoff:    time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.InjectFaultPlan(FaultPlan{Faults: []Fault{
		{Kind: FaultCrashProcessor, Proc: 1, AtIteration: 1},
		{Kind: FaultCrashMaster, AtIteration: 3},
	}})
	e.Start()
	defer e.Stop()

	e.IngestAll(tuples)
	// Both faults fire, but recovery is loop-granular: deaths noticed in
	// the same detection window legitimately share one restart. The watcher
	// polls the frontier every millisecond, so a fast run can settle before
	// it fires them: wait for the crashes and a recovery, then for the loop.
	waitUntil(t, waitFor, func() bool {
		s := e.StatsSnapshot()
		return s.Crashes >= 2 && s.Recoveries >= 1
	}, "planned crashes never fired and recovered")
	if err := e.WaitSettled(waitFor); err != nil {
		t.Fatal(err)
	}
	checkSSSP(t, e, tuples)

	// Crash mid-branch-fork: the fork spec is captured before the fault
	// fires, so the branch still converges to the fixed point while the
	// parent recovers underneath it.
	e.InjectFaultPlan(FaultPlan{Faults: []Fault{
		{Kind: FaultCrashProcessor, Proc: 0, OnFork: true},
	}})
	br, _, err := e.ForkBranch(storage.LoopID(100), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := br.WaitDone(waitFor); err != nil {
		t.Fatal(err)
	}
	checkSSSP(t, br, tuples)
	br.Stop()
	if err := e.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	checkSSSP(t, e, tuples)
	checkQuiescent(t, e)
}

// TestQuarantineMovesRangeOntoSpare is the quarantine-with-spares regression
// test: with spare slots in the plan, a processor over its restart budget
// must hand its range to a spare through a plan transition. Every slot that
// hosts vertices is then active in the plan (and counted by
// tornado_elastic_active_processors), the quarantined slot is neither active
// nor a spare, and a later ScaleOut lands on a slot that really hosts
// nothing.
func TestQuarantineMovesRangeOntoSpare(t *testing.T) {
	tuples := datasets.PowerLawGraph(200, 3, 43)
	hub := obs.NewHub(0)
	e, err := New(Config{
		Processors:        2,
		MaxProcessors:     4,
		DelayBound:        8,
		Kind:              MainLoop,
		LoopID:            storage.MainLoop,
		Store:             storage.NewMVCCStore(),
		Program:           ssspProg{source: 0},
		Seed:              43,
		HeartbeatInterval: 10 * time.Millisecond,
		suspectAfter:      5,
		maxRestarts:       2,
		restartWindow:     time.Minute,
		restartBackoff:    time.Millisecond,
		Obs:               hub,
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
	for round := 0; round < 3; round++ {
		before := e.StatsSnapshot().Recoveries
		e.CrashProcessor(0)
		waitUntil(t, waitFor, func() bool { return e.StatsSnapshot().Recoveries > before },
			fmt.Sprintf("round %d: supervisor never recovered the crash", round))
	}
	if q := e.Quarantined(); len(q) != 1 || q[0] != 0 {
		t.Fatalf("Quarantined() = %v after three crashes of slot 0; want [0]", q)
	}
	e.IngestAll(tuples[half:])
	if err := e.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}

	// hosting checks the plan against where the vertices really are, and
	// returns the number of slots hosting any.
	hosting := func(when string) int {
		t.Helper()
		st, loads := e.PlanStats(), e.PartitionLoads()
		n := 0
		for _, l := range loads {
			if l.Vertices > 0 {
				n++
				if !st.Active[l.Proc] {
					t.Fatalf("%s: slot %d hosts %d vertices but the plan calls it inactive (active %v, loads %+v)",
						when, l.Proc, l.Vertices, st.Active, loads)
				}
			}
		}
		if st.Active[0] || !loads[0].Quarantined || loads[0].Vertices != 0 {
			t.Fatalf("%s: quarantined slot 0 is active=%v quarantined=%v hosting %d", when, st.Active[0], loads[0].Quarantined, loads[0].Vertices)
		}
		if got := scrapeGauge(t, hub, "tornado_elastic_active_processors"); got != float64(n) {
			t.Fatalf("%s: tornado_elastic_active_processors = %v, but %d slots host vertices", when, got, n)
		}
		return n
	}
	if n := hosting("after quarantine"); n != 2 {
		t.Fatalf("%d slots host vertices after the quarantine; want the survivor and one spare", n)
	}
	checkSSSP(t, e, tuples)

	before := e.PartitionLoads()
	spare, err := e.ScaleOut(-1)
	if err != nil {
		t.Fatal(err)
	}
	if spare == 0 || before[spare].Vertices != 0 {
		t.Fatalf("ScaleOut landed on slot %d, which hosted %d vertices (loads before: %+v)", spare, before[spare].Vertices, before)
	}
	if err := e.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	if n := hosting("after scale-out"); n != 3 {
		t.Fatalf("%d slots host vertices after the scale-out; want 3", n)
	}
	checkSSSP(t, e, tuples)
	checkQuiescent(t, e)
}

// scrapeGauge reads one unlabeled-or-single-series sample off the hub's
// Prometheus exposition.
func scrapeGauge(t *testing.T, hub *obs.Hub, name string) float64 {
	t.Helper()
	var b bytes.Buffer
	if err := hub.Registry.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(b.String(), "\n") {
		if strings.HasPrefix(line, name+"{") || strings.HasPrefix(line, name+" ") {
			v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
			if err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("/metrics has no %s sample", name)
	return 0
}

// TestWaitQuiesceAwaitsCrashRestart: a processor that crashes holding no
// tokens leaves its incarnation's tracker quiescent, yet the supervisor's
// restart is about to re-activate the whole checkpoint in a new one.
// WaitQuiesce must not report the crashed incarnation's quiescence: it
// returns once the restart ran and the incarnation it built quiesced, so an
// audit right after finds no tokens in the restart's hand-off.
func TestWaitQuiesceAwaitsCrashRestart(t *testing.T) {
	tuples := datasets.PowerLawGraph(200, 3, 53)
	e, err := New(Config{
		Processors:        3,
		DelayBound:        8,
		Kind:              MainLoop,
		LoopID:            storage.MainLoop,
		Store:             storage.NewMVCCStore(),
		Program:           ssspProg{source: 0},
		Seed:              53,
		HeartbeatInterval: 10 * time.Millisecond,
		restartBackoff:    time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	defer e.Stop()
	e.IngestAll(tuples)
	if err := e.WaitSettled(waitFor); err != nil {
		t.Fatal(err)
	}
	e.CrashProcessor(0)
	if err := e.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	if s := e.StatsSnapshot(); s.Recoveries != 1 {
		t.Fatalf("WaitQuiesce returned after a crash with Recoveries = %d; want the restart done", s.Recoveries)
	}
	checkSSSP(t, e, tuples)
	checkQuiescent(t, e)
}
