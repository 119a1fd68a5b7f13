package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"tornado/internal/algorithms"
	"tornado/internal/datasets"
	"tornado/internal/engine"
	"tornado/internal/obs"
	"tornado/internal/storage"
	"tornado/internal/stream"
)

// traceOverheadGate is the regression budget: the default 1% head-sampling
// rate may cost at most this fraction of the untraced baseline's sustained
// updates/sec. `make bench-trace` exits nonzero past it.
const traceOverheadGate = 0.03

// TraceOverheadRow is one sampling mode of the tracing-overhead benchmark.
type TraceOverheadRow struct {
	Mode          string  `json:"mode"` // "off" | "1pct" | "100pct"
	Rate          float64 `json:"rate"`
	Waves         int     `json:"waves"`
	Updates       int64   `json:"updates"`
	UpdatesPerSec float64 `json:"updates_per_sec"` // best of the interleaved runs
	Spans         uint64  `json:"spans_recorded"`
}

// TraceOverheadReport is the causal-span overhead experiment: the same SSSP
// edge-churn soak as the throughput benchmark, run with tracing off, at the
// default 1% head-sampling rate, and at 100%. Overhead is the fractional
// throughput loss against the untraced baseline. Each mode runs three times,
// interleaved (off, 1%, 100%, off, 1%, 100%, ...) so slow machine phases hit
// every mode equally, and the best run counts — best-of-N approximates each
// mode's capacity, which is what the gate compares.
type TraceOverheadReport struct {
	Scale          string             `json:"scale"`
	Processors     int                `json:"processors"`
	SoakSeconds    float64            `json:"soak_seconds"`
	Rows           []TraceOverheadRow `json:"rows"`
	Overhead1Pct   float64            `json:"overhead_1pct"`
	Overhead100Pct float64            `json:"overhead_100pct"`
	Gate           float64            `json:"gate"`
	Violation      string             `json:"violation,omitempty"`
}

// RunTraceOverhead measures the sustained-throughput cost of causal span
// tracing and arms the ≤3% gate on the default 1% rate.
func RunTraceOverhead(s Scale) (*TraceOverheadReport, error) {
	soak := 20 * time.Second
	if s.Name == "small" {
		soak = 2 * time.Second
	}
	rep := &TraceOverheadReport{
		Scale: s.Name, Processors: 4, SoakSeconds: soak.Seconds(), Gate: traceOverheadGate,
	}
	modes := []TraceOverheadRow{
		{Mode: "off", Rate: 0},
		{Mode: "1pct", Rate: 0.01},
		{Mode: "100pct", Rate: 1},
	}
	tuples := datasets.PowerLawGraph(s.GraphVertices, 10, 91)
	const runs = 3
	for r := 0; r < runs; r++ {
		for i := range modes {
			row, err := runTraceOverheadMode(tuples, modes[i].Rate, soak)
			if err != nil {
				return nil, fmt.Errorf("bench trace_overhead (%s): %w", modes[i].Mode, err)
			}
			if row.UpdatesPerSec > modes[i].UpdatesPerSec {
				row.Mode, row.Rate = modes[i].Mode, modes[i].Rate
				modes[i] = row
			}
		}
	}
	rep.Rows = modes
	if base := modes[0].UpdatesPerSec; base > 0 {
		rep.Overhead1Pct = (base - modes[1].UpdatesPerSec) / base
		rep.Overhead100Pct = (base - modes[2].UpdatesPerSec) / base
	}
	if rep.Overhead1Pct > traceOverheadGate {
		rep.Violation = fmt.Sprintf(
			"1%% sampling costs %.1f%% of baseline updates/sec (gate %.0f%%)",
			rep.Overhead1Pct*100, traceOverheadGate*100)
	}
	return rep, nil
}

// Failed surfaces the gate so the bench driver can exit nonzero after the
// artifact is written.
func (r *TraceOverheadReport) Failed() error {
	if r.Violation != "" {
		return fmt.Errorf("trace_overhead gate: %s", r.Violation)
	}
	return nil
}

// runTraceOverheadMode soaks one engine at one sampling rate: ingest the base
// graph, quiesce, then churn a tenth of the edges until the deadline (the
// runThroughputMode workload, with the transport and engine span hooks live).
func runTraceOverheadMode(tuples []stream.Tuple, rate float64, soak time.Duration) (TraceOverheadRow, error) {
	// Every mode carries a full hub so the comparison isolates the span
	// pipeline; rate 0 disables the tracer (obs.NewHub semantics), which is
	// exactly the Enabled() fast path production pays when tracing is off.
	hub := obs.NewHub(rate)
	e, err := engine.New(engine.Config{
		Processors: 4,
		DelayBound: 64,
		Kind:       engine.MainLoop,
		LoopID:     storage.MainLoop,
		Store:      storage.NewMVCCStore(),
		Program:    algorithms.SSSP{Source: 0},
		Seed:       1,
		MaxBatch:   256,
		Obs:        hub,
	})
	if err != nil {
		return TraceOverheadRow{}, err
	}
	e.Start()
	defer e.Stop()
	e.IngestAll(tuples)
	if err := e.WaitQuiesce(time.Minute); err != nil {
		return TraceOverheadRow{}, err
	}

	var edges []stream.Tuple
	for _, t := range tuples {
		if t.Kind == stream.KindAddEdge {
			edges = append(edges, t)
		}
	}
	chunk := edges[:len(edges)/10]
	ts := stream.Timestamp(len(tuples))

	row := TraceOverheadRow{Rate: rate}
	s0 := e.StatsSnapshot()
	start := time.Now()
	deadline := start.Add(soak)
	wave := make([]stream.Tuple, len(chunk))
	const pipelined = 8
	for time.Now().Before(deadline) {
		for w := 0; w < pipelined; w++ {
			for i, t := range chunk {
				if w%2 == 0 {
					wave[i] = stream.RemoveEdge(ts, t.Src, t.Dst)
				} else {
					wave[i] = stream.AddEdge(ts, t.Src, t.Dst)
				}
				ts++
			}
			e.IngestAll(wave)
			row.Waves++
		}
		if err := e.WaitQuiesce(time.Minute); err != nil {
			return TraceOverheadRow{}, err
		}
	}
	elapsed := time.Since(start)
	s1 := e.StatsSnapshot()
	row.Updates = s1.UpdateMsgs - s0.UpdateMsgs
	row.UpdatesPerSec = float64(row.Updates) / elapsed.Seconds()
	row.Spans = hub.Spans.Recorded()
	return row, nil
}

// String renders the benchmark table.
func (r *TraceOverheadReport) String() string {
	header := []string{"mode", "rate", "waves", "updates/s", "spans", "overhead"}
	overheads := []float64{0, r.Overhead1Pct, r.Overhead100Pct}
	var rows [][]string
	for i, row := range r.Rows {
		rows = append(rows, []string{
			row.Mode,
			fmt.Sprintf("%.2f", row.Rate),
			fmt.Sprintf("%d", row.Waves),
			fmt.Sprintf("%.0f", row.UpdatesPerSec),
			fmt.Sprintf("%d", row.Spans),
			fmt.Sprintf("%+.1f%%", -overheads[i]*100),
		})
	}
	out := table(header, rows)
	if r.Violation != "" {
		out += "GATE VIOLATION: " + r.Violation + "\n"
	} else {
		out += fmt.Sprintf("gate: 1%% sampling within %.0f%% of baseline ✓\n", r.Gate*100)
	}
	return out
}

// WriteArtifact writes the report as JSON (the BENCH_trace_overhead.json
// artifact).
func (r *TraceOverheadReport) WriteArtifact(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
