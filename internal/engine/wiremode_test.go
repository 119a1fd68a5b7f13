package engine

import (
	"strings"
	"testing"
	"time"

	"tornado/internal/datasets"
	"tornado/internal/obs"
	"tornado/internal/storage"
	"tornado/internal/stream"
	"tornado/internal/transport"
)

// Fast hermetic wire-mode tests (not -short-skipped): the full engine over
// the in-memory wire substrate, where every frame still pays encode, CRC and
// decode. The TCP variants of the chaos soaks live in soak_test.go.

func TestWireModeSSSPExact(t *testing.T) {
	tuples := datasets.PowerLawGraph(150, 3, 99)
	e, err := New(Config{
		Processors: 3,
		DelayBound: 8,
		Kind:       MainLoop,
		LoopID:     storage.MainLoop,
		Store:      storage.NewMVCCStore(),
		Program:    ssspProg{source: 0},
		Seed:       99,
		Wire:       &WireSpec{Mem: transport.NewMemWire()},
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	defer e.Stop()
	e.IngestAll(tuples)
	if err := e.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	checkSSSP(t, e, tuples)
	s := e.StatsSnapshot()
	if s.WireTxFrames == 0 || s.WireRxFrames == 0 {
		t.Fatalf("wire mode moved no frames: tx=%d rx=%d", s.WireTxFrames, s.WireRxFrames)
	}
	if s.WireTxBytes == 0 || s.WireRxBytes == 0 {
		t.Fatalf("wire byte counters empty: tx=%d rx=%d", s.WireTxBytes, s.WireRxBytes)
	}
	if s.WireChecksumFailures != 0 || s.WireTornFrames != 0 {
		t.Fatalf("clean wire counted corruption: checksum=%d torn=%d",
			s.WireChecksumFailures, s.WireTornFrames)
	}
	if e.WireAddr() == "" {
		t.Fatal("WireAddr empty in wire mode")
	}
}

func TestWireModeTCPDefaultsResend(t *testing.T) {
	// A wire spec without ResendAfter must still run the wire's ledger: the
	// wire sheds frames freely and relies on it. The transport defaults the
	// timeout; the receivers' acks show the ledger ran.
	e, err := New(Config{
		Processors: 2,
		DelayBound: 4,
		Kind:       MainLoop,
		LoopID:     storage.MainLoop,
		Store:      storage.NewMVCCStore(),
		Program:    ssspProg{source: 0},
		Seed:       1,
		Wire:       &WireSpec{}, // TCP on a fresh loopback port
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	defer e.Stop()
	tuples := datasets.PowerLawGraph(60, 2, 5)
	e.IngestAll(tuples)
	if err := e.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	checkSSSP(t, e, tuples)
	if e.StatsSnapshot().TransportAckFrames == 0 {
		t.Fatal("a wire without ResendAfter sent no acks: its ledger is off")
	}
	if !strings.Contains(e.WireAddr(), "127.0.0.1:") {
		t.Fatalf("WireAddr = %q, want a loopback TCP address", e.WireAddr())
	}
}

// Crash recovery in wire mode: the incarnation teardown closes the old
// listener and connections, the new incarnation builds a fresh wire, and the
// recovered run still lands on the exact fixed point.
func TestWireModeCrashRecovery(t *testing.T) {
	tuples := datasets.PowerLawGraph(120, 3, 31)
	e, err := New(Config{
		Processors: 3,
		DelayBound: 8,
		Kind:       MainLoop,
		LoopID:     storage.MainLoop,
		Store:      storage.NewMVCCStore(),
		Program:    ssspProg{source: 0},
		Seed:       31,
		// A 300ms suspicion window: wide enough that race-detector
		// scheduling stalls don't trigger spurious suspicion storms
		// (recover → stall → re-suspect, forever), still sub-second
		// detection of the injected crash.
		HeartbeatInterval: 10 * time.Millisecond,
		suspectAfter:      30,
		restartBackoff:    time.Millisecond,
		Wire:              &WireSpec{Mem: transport.NewMemWire()},
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	defer e.Stop()
	half := len(tuples) / 2
	e.IngestAll(tuples[:half])
	waitUntil(t, waitFor, func() bool { return e.Notified() >= 1 }, "no progress before crash")
	e.CrashProcessor(1)
	e.IngestAll(tuples[half:])
	waitUntil(t, waitFor, func() bool { return e.StatsSnapshot().Recoveries >= 1 },
		"crash never recovered in wire mode")
	if err := e.WaitQuiesce(waitFor); err != nil {
		t.Fatalf("%v (recoveries=%d notified=%d)", err, e.StatsSnapshot().Recoveries, e.Notified())
	}
	checkSSSP(t, e, tuples)
	checkQuiescent(t, e)
}

// A mid-run wire partition stalls progress but loses nothing: healing
// replays the resend backlog and the run converges exactly.
func TestWireModePartitionHeal(t *testing.T) {
	tuples := datasets.PowerLawGraph(120, 3, 63)
	e, err := New(Config{
		Processors: 3,
		DelayBound: 8,
		Kind:       MainLoop,
		LoopID:     storage.MainLoop,
		Store:      storage.NewMVCCStore(),
		Program:    ssspProg{source: 0},
		Seed:       63,
		Wire:       &WireSpec{Mem: transport.NewMemWire()},
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	defer e.Stop()
	e.IngestAll(tuples[:len(tuples)/2])
	if !e.SetWirePartition(true) {
		t.Fatal("SetWirePartition reported no wire")
	}
	e.IngestAll(tuples[len(tuples)/2:])
	time.Sleep(20 * time.Millisecond)
	e.SetWirePartition(false)
	if err := e.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	checkSSSP(t, e, tuples)
	var sawFault, sawHeal bool
	for _, ev := range e.RecoveryLog() {
		switch ev.Kind {
		case EventWireFault:
			sawFault = true
		case EventWireHeal:
			sawHeal = true
		}
	}
	if !sawFault || !sawHeal {
		t.Fatalf("recovery log missing wire fault/heal events: %+v", e.RecoveryLog())
	}
}

// Wire metrics register under the hub and the statusz section carries the
// wire block.
func TestWireModeObservability(t *testing.T) {
	hub := obs.NewHub(0)
	e, err := New(Config{
		Processors: 2,
		DelayBound: 4,
		Kind:       MainLoop,
		LoopID:     storage.MainLoop,
		Store:      storage.NewMVCCStore(),
		Program:    ssspProg{source: 0},
		Seed:       7,
		Obs:        hub,
		Wire:       &WireSpec{Mem: transport.NewMemWire()},
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	defer e.Stop()
	e.IngestAll(ringTuples(12))
	if err := e.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := hub.Registry.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		"tornado_wire_frames_total",
		`dir="tx"`,
		`dir="rx"`,
		"tornado_wire_bytes_total",
		"tornado_wire_reconnects_total",
		"tornado_wire_checksum_failures_total",
		"tornado_wire_frames_per_flush",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
	st, ok := e.statusz().(map[string]any)
	if !ok {
		t.Fatal("statusz did not return a map")
	}
	wireSec, ok := st["wire"].(map[string]any)
	if !ok {
		t.Fatalf("statusz missing wire section: %v", st["wire"])
	}
	if wireSec["addr"] == "" {
		t.Error("statusz wire section missing addr")
	}
	if v, ok := wireSec["tx_frames"].(int64); !ok || v == 0 {
		t.Errorf("statusz wire tx_frames = %v, want > 0", wireSec["tx_frames"])
	}
}

// Branch fork and merge-back ride the wire too: the branch engine inherits
// no wire (branches are in-process scratch loops), but the main loop's
// message plane stays serialized throughout.
func TestWireModeBranchForkMerge(t *testing.T) {
	tuples := datasets.PowerLawGraph(100, 3, 12)
	e, err := New(Config{
		Processors: 3,
		DelayBound: 8,
		Kind:       MainLoop,
		LoopID:     storage.MainLoop,
		Store:      storage.NewMVCCStore(),
		Program:    ssspProg{source: 0},
		Seed:       12,
		Wire:       &WireSpec{Mem: transport.NewMemWire()},
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	defer e.Stop()
	e.IngestAll(tuples)
	if err := e.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	br, _, err := e.ForkBranch(storage.LoopID(200), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := br.WaitDone(waitFor); err != nil {
		t.Fatal(err)
	}
	checkSSSP(t, br, tuples)
	if err := e.AdoptBranch(br); err != nil {
		t.Fatal(err)
	}
	br.Stop()
	checkSSSP(t, e, tuples)
}

var _ = stream.VertexID(0)
