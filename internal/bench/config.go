// Package bench contains one runner per table and figure of the paper's
// evaluation (Section 6). Each runner builds its workload, drives the
// Tornado engine and the relevant baselines, and returns a report whose
// String method prints the same rows/series the paper does.
//
// Absolute numbers differ from the paper (their substrate was a 20-node
// Storm cluster; ours is an in-process runtime on scaled-down synthetic
// data), but each report's *shape* is what the paper establishes: who wins,
// by roughly what factor, and where the crossovers are. EXPERIMENTS.md
// records the comparison per artifact.
package bench

import (
	"fmt"
	"strings"
	"time"

	"tornado/internal/datasets"
	"tornado/internal/engine"
	"tornado/internal/storage"
	"tornado/internal/stream"
)

// Scale selects workload sizes: Small keeps every runner under a few
// seconds (CI and testing.B), Full is the cmd/tornado-bench default.
type Scale struct {
	Name string
	// GraphVertices / GraphEdgesPerVertex size the power-law graph.
	GraphVertices       int
	GraphEdgesPerVertex int
	// Instances sizes the SGD streams, Points the KMeans stream.
	Instances int
	Points    int
	// Probes is the number of query instants per latency experiment.
	Probes int
	// Procs is the default worker count.
	Procs int
	// WorkerSweep is the worker counts for the scalability figure.
	WorkerSweep []int
	// RTT is the simulated network round-trip charged per synchronization
	// round, uniformly for baselines and Tornado branch loops. It models
	// the communication cost the paper's cluster pays per barrier and puts
	// the expected floor under small-epoch batch latencies.
	RTT time.Duration
}

// SmallScale keeps runners fast for tests and testing.B benchmarks.
var SmallScale = Scale{
	Name:                "small",
	GraphVertices:       600,
	GraphEdgesPerVertex: 3,
	Instances:           2000,
	Points:              1500,
	Probes:              5,
	Procs:               4,
	WorkerSweep:         []int{1, 2, 4, 8},
	RTT:                 5 * time.Millisecond,
}

// FullScale is the cmd/tornado-bench default.
var FullScale = Scale{
	Name:                "full",
	GraphVertices:       5000,
	GraphEdgesPerVertex: 4,
	Instances:           10000,
	Points:              6000,
	Probes:              8,
	Procs:               8,
	WorkerSweep:         []int{1, 2, 4, 8, 16},
	RTT:                 20 * time.Millisecond,
}

// ScaleByName resolves "small" / "full".
func ScaleByName(name string) (Scale, error) {
	switch name {
	case "small":
		return SmallScale, nil
	case "full", "":
		return FullScale, nil
	default:
		return Scale{}, fmt.Errorf("bench: unknown scale %q", name)
	}
}

// newEngine builds and starts a main-loop engine with the harness defaults.
func newEngine(prog engine.Program, procs int, bound int64) (*engine.Engine, error) {
	e, err := engine.New(engine.Config{
		Processors: procs,
		DelayBound: bound,
		Kind:       engine.MainLoop,
		LoopID:     storage.MainLoop,
		Store:      storage.NewMVCCStore(),
		Program:    prog,
		Seed:       1,
	})
	if err != nil {
		return nil, err
	}
	e.Start()
	return e, nil
}

// probeInstants returns n cut points over the tuple stream, excluding 0.
// The cuts are deliberately de-aligned from round fractions so they do not
// coincide with the epoch boundaries of the swept batch engines (a query
// landing exactly on a boundary would see an empty tail, which no real
// ad-hoc query could count on).
func probeInstants(total, n int) []int {
	out := make([]int, n)
	for i := 0; i < n; i++ {
		cut := (i+1)*total/n - 1 - (i*13)%17
		if cut < 1 {
			cut = 1
		}
		if cut > total {
			cut = total
		}
		if i > 0 && cut <= out[i-1] {
			cut = out[i-1] + 1
		}
		out[i] = cut
	}
	return out
}

// branchComm is the simulated communication cost of a finished branch loop.
// A synchronous branch (B = 1) pays one round-trip per iteration barrier;
// a bounded-asynchronous branch has no barriers — its updates pipeline, so
// it pays a per-message cost (RTT/1000 per update message, the same unit
// the Naiad-like reconstruction is charged). This asymmetry is the paper's
// core argument for fine-grained asynchronous execution.
func branchComm(br *engine.Engine, rtt time.Duration) time.Duration {
	if br.Config().DelayBound == 1 {
		return time.Duration(br.Notified()+1) * rtt
	}
	return time.Duration(br.StatsSnapshot().UpdateMsgs) * rtt / 1000
}

// forkAndWait forks a branch, waits for convergence, and returns the
// latency together with the branch (caller stops it).
func forkAndWait(e *engine.Engine, loop storage.LoopID, override func(*engine.Config), seed func(*engine.Engine), timeout time.Duration) (*engine.Engine, time.Duration, error) {
	start := time.Now()
	br, _, err := e.ForkBranch(loop, override, seed)
	if err != nil {
		return nil, 0, err
	}
	if err := br.WaitDone(timeout); err != nil {
		br.Stop()
		return nil, 0, err
	}
	return br, time.Since(start), nil
}

// table renders rows of labelled values with aligned columns.
func table(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	for _, r := range rows {
		writeRow(r)
	}
	return b.String()
}

// fmtDur renders a duration in seconds with millisecond resolution.
func fmtDur(d time.Duration) string {
	return fmt.Sprintf("%.3fs", d.Seconds())
}

// edgeStream builds the SSSP/PageRank input for a scale.
func edgeStream(s Scale, seed int64) []stream.Tuple {
	return datasets.PowerLawGraph(s.GraphVertices, s.GraphEdgesPerVertex, seed)
}
