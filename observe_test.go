package tornado

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/http"
	"strings"
	"testing"

	"tornado/internal/algorithms"
	"tornado/internal/datasets"
	"tornado/internal/engine"
	"tornado/internal/obs/trace"
	"tornado/internal/storage"
	"tornado/internal/stream"
)

// TestMetricsEndpointQuickstart is the issue's acceptance scenario: a
// quickstart-style run with MetricsAddr set exposes /metrics with the main
// loop's protocol counters, the frontier gauge, and — after a query — the
// branch-loop convergence histogram; sys.Trace returns the watched vertex's
// protocol events in order.
func TestMetricsEndpointQuickstart(t *testing.T) {
	sys := newSSSP(t, Options{
		Processors:  2,
		DelayBound:  8,
		MetricsAddr: "127.0.0.1:0",
	})
	url := sys.MetricsURL()
	if url == "" {
		t.Fatal("MetricsURL empty with MetricsAddr set")
	}

	const watched = VertexID(2)
	sys.Watch(watched)
	sys.IngestAll([]Tuple{
		stream.AddEdge(1, 0, 1),
		stream.AddEdge(2, 1, 2),
		stream.AddEdge(3, 2, 3),
		stream.AddEdge(4, 3, 0),
	})
	res, err := sys.Query(waitFor)
	if err != nil {
		t.Fatal(err)
	}
	res.Close()
	if err := sys.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}

	body := httpGet(t, url+"/metrics")
	mainSeries := `{kind="main",loop="0",program="algorithms.SSSP"}`
	for _, want := range []string{
		"# TYPE tornado_commits_total counter",
		"tornado_commits_total" + mainSeries,
		"tornado_update_msgs_total" + mainSeries,
		"tornado_prepare_msgs_total" + mainSeries,
		"tornado_ack_msgs_total" + mainSeries,
		"tornado_frontier_iteration" + mainSeries,
		`tornado_branches_total{kind="system"} 1`,
		`tornado_branch_converge_seconds_count{kind="system"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
	// The finished query's branch loop must not leak series.
	if strings.Contains(body, `kind="branch"`) {
		t.Errorf("closed branch loop leaked series:\n%s", body)
	}

	// /statusz carries the per-loop and system sections as JSON.
	var status map[string]any
	if err := json.Unmarshal([]byte(httpGet(t, url+"/statusz")), &status); err != nil {
		t.Fatalf("/statusz not JSON: %v", err)
	}
	if _, ok := status["loop/0"]; !ok {
		t.Errorf("/statusz missing loop/0: %v", status)
	}
	if _, ok := status["system"]; !ok {
		t.Errorf("/statusz missing system section: %v", status)
	}

	// An unwatched vertex records nothing while the watched one shows the
	// ordered three-phase protocol.
	if evs := sys.Trace(0); len(evs) != 0 {
		t.Errorf("unwatched vertex recorded protocol markers: %v", evs)
	}
	events := sys.Trace(watched)
	if len(events) == 0 {
		t.Fatal("Trace(watched) returned no events")
	}
	var lastSeq uint64
	sawCommit := false
	for i, ev := range events {
		if ev.Seq <= lastSeq {
			t.Fatalf("event %d out of order: %v", i, events)
		}
		lastSeq = ev.Seq
		if ev.Stage == trace.MarkCommit {
			sawCommit = true
		}
	}
	if !sawCommit {
		t.Fatalf("watched vertex never committed: %v", events)
	}

	// Stats() mirrors what the endpoint exposes.
	s := sys.Stats()
	if s.Commits == 0 || s.Frontier <= 0 {
		t.Fatalf("StatsSnapshot empty after run: %+v", s)
	}
	if s.PendingPrepares != 0 {
		t.Fatalf("PendingPrepares = %d after quiescence", s.PendingPrepares)
	}
}

// TestProtocolMarkersOnDefaultOptions pins the protocol view on shipping
// Options{}: a churn burst plus an exact query records no protocol marker
// for any unwatched vertex; the watched vertex's markers are ordered
// (PREPARE before the first COMMIT, ascending Seq) in the main loop and in
// the query's branch loop; and markers never surface as causal traces or in
// the tornado_stage_seconds histograms.
func TestProtocolMarkersOnDefaultOptions(t *testing.T) {
	sys := newSSSP(t, Options{})
	const watched = VertexID(3)
	sys.Watch(watched)

	base := datasets.PowerLawGraph(50, 3, 7)
	sys.IngestAll(base)
	if err := sys.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	// The churn burst: retract every fifth edge, then give the watched
	// vertex a new producer and a new consumer.
	ts := stream.Timestamp(len(base) + 1)
	var burst []Tuple
	for i := 0; i < len(base); i += 5 {
		burst = append(burst, stream.RemoveEdge(ts, base[i].Src, base[i].Dst))
		ts++
	}
	burst = append(burst, stream.AddEdge(ts, 0, watched), stream.AddEdge(ts+1, watched, 49))
	sys.IngestAll(burst)
	// A private exact query whose branch re-activates the watched vertex, so
	// the branch runs its protocol too.
	res, err := sys.QueryWith(waitFor, nil, func(br *engine.Engine) { br.Activate(watched) })
	if err != nil {
		t.Fatal(err)
	}
	res.Close()
	if err := sys.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}

	spans := sys.Spans()
	if spans.Recorded() != uint64(spans.Len()) {
		t.Fatalf("span ring wrapped (%d recorded, %d retained): shrink the workload", spans.Recorded(), spans.Len())
	}
	markers := map[uint64][]trace.Span{} // by loop
	causal := map[string]int{}           // stage -> recorded causal spans
	for _, sp := range spans.Snapshot() {
		switch {
		case sp.Trace != 0:
			if sp.Dur > 0 {
				causal[sp.Stage]++
			}
		case sp.Vertex != trace.NoVertex:
			if sp.Vertex != uint64(watched) {
				t.Fatalf("unwatched vertex %d recorded a protocol marker: %v", sp.Vertex, sp)
			}
			markers[sp.Loop] = append(markers[sp.Loop], sp)
		}
	}

	main := sys.Trace(watched)
	if len(main) == 0 || len(main) != len(markers[uint64(storage.MainLoop)]) {
		t.Fatalf("Trace(watched) = %d markers; the ring holds %d for the main loop", len(main), len(markers[uint64(storage.MainLoop)]))
	}
	delete(markers, uint64(storage.MainLoop))
	if len(markers) != 1 {
		t.Fatalf("watched vertex recorded markers in %d branch loops; want 1", len(markers))
	}
	for loop, branch := range markers {
		checkProtocolOrder(t, fmt.Sprintf("branch loop %d", loop), branch)
	}
	checkProtocolOrder(t, "main loop", main)

	for _, v := range spans.Traces(trace.Filter{Limit: 1 << 20}) {
		for _, sp := range v.Spans {
			if sp.Dur == 0 {
				t.Fatalf("zero-width span in trace %d: %v", v.Trace, sp)
			}
		}
	}
	var b strings.Builder
	if err := sys.Obs().Registry.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	exposed := map[string]int{}
	for _, line := range strings.Split(b.String(), "\n") {
		var stage string
		var n int
		if _, err := fmt.Sscanf(line, "tornado_stage_seconds_count{stage=%q} %d", &stage, &n); err == nil {
			exposed[stage] = n
		}
	}
	if !maps.Equal(exposed, causal) {
		t.Fatalf("tornado_stage_seconds counts %v; want exactly the causal spans %v", exposed, causal)
	}
}

// checkProtocolOrder asserts a watched vertex's markers run in recording
// order, with a PREPARE sent or received before the first COMMIT.
func checkProtocolOrder(t *testing.T, where string, events []TraceEvent) {
	t.Helper()
	var lastSeq uint64
	firstPrepare, firstCommit := -1, -1
	for i, ev := range events {
		if ev.Seq <= lastSeq {
			t.Fatalf("%s: marker %d out of order: %v", where, i, events)
		}
		lastSeq = ev.Seq
		switch ev.Stage {
		case trace.MarkPrepareSend, trace.MarkPrepareRecv:
			if firstPrepare < 0 {
				firstPrepare = i
			}
		case trace.MarkCommit:
			if firstCommit < 0 {
				firstCommit = i
			}
		}
	}
	if firstCommit < 0 || firstPrepare < 0 || firstPrepare > firstCommit {
		t.Fatalf("%s: want a PREPARE (at %d) before the first COMMIT (at %d): %v", where, firstPrepare, firstCommit, events)
	}
}

func TestNoMetricsAddrMeansNoServer(t *testing.T) {
	sys := newSSSP(t, Options{})
	if url := sys.MetricsURL(); url != "" {
		t.Fatalf("MetricsURL = %q without MetricsAddr; want empty", url)
	}
	if sys.Obs() == nil {
		t.Fatal("Obs hub must exist even without an endpoint")
	}
}

func TestNewRejectsBadMetricsAddr(t *testing.T) {
	_, err := New(algorithms.SSSP{Source: 0}, Options{MetricsAddr: "256.256.256.256:-1"})
	if err == nil {
		t.Fatal("want error for unusable metrics address")
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
