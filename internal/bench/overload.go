package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"tornado/internal/algorithms"
	"tornado/internal/datasets"
	"tornado/internal/engine"
	"tornado/internal/storage"
	"tornado/internal/stream"
)

// OverloadRow is one consumer regime of the backpressure benchmark.
type OverloadRow struct {
	Mode          string  `json:"mode"` // "baseline" | "overload"
	Waves         int     `json:"waves"`
	Updates       int64   `json:"updates"`
	UpdatesPerSec float64 `json:"updates_per_sec"`
	// IngestP50 / IngestP99 are per-chunk ingest call latencies in
	// milliseconds: with the admission gate engaged these are where the
	// backpressure a producer feels becomes visible.
	IngestP50Ms float64 `json:"ingest_p50_ms"`
	IngestP99Ms float64 `json:"ingest_p99_ms"`
	// Bounded-memory columns: the admission ledger's high-water mark
	// against its capacity, and the deepest transport inbox ever sampled
	// against the high watermark.
	GatePeak     int `json:"gate_peak"`
	GateCapacity int `json:"gate_capacity"`
	InboxPeak    int `json:"inbox_peak"`
	InboxHigh    int `json:"inbox_high"`
	// Flow-control activity: watermark crossings, frames parked at
	// senders, and the cumulative time the producer spent blocked at the
	// gate.
	Stalls       int64   `json:"stalls"`
	FramesHeld   int64   `json:"frames_held"`
	PauseSeconds float64 `json:"pause_seconds"`
}

// OverloadReport is the backpressure experiment: the same SSSP edge-churn
// soak against a healthy consumer and against a deliberately slowed
// processor, both under the full flow-control stack (admission gate,
// transport inbox watermarks). The overloaded run must keep its queues under
// the configured bounds — the surge parks the producer instead of growing
// memory — and the knee is the throughput the slow consumer actually
// sustains, with the producer's p99 ingest latency showing where the stall
// time went.
type OverloadReport struct {
	Scale       string        `json:"scale"`
	Processors  int           `json:"processors"`
	SoakSeconds float64       `json:"soak_seconds"`
	SlowEveryUS int64         `json:"slow_commit_us"`
	Rows        []OverloadRow `json:"rows"`
	// Knee is overloaded over baseline sustained updates/sec: how much of
	// the healthy throughput survives a crawling consumer under graceful
	// backpressure (instead of an OOM).
	Knee float64 `json:"knee"`
}

// RunOverload measures sustained throughput and producer-visible ingest
// latency with and without a slowed consumer.
func RunOverload(s Scale) (*OverloadReport, error) {
	soak := 20 * time.Second
	if s.Name == "small" {
		soak = 2 * time.Second
	}
	const slowCommit = 200 * time.Microsecond
	rep := &OverloadReport{
		Scale: s.Name, Processors: 4,
		SoakSeconds: soak.Seconds(), SlowEveryUS: slowCommit.Microseconds(),
	}
	tuples := datasets.PowerLawGraph(s.GraphVertices, s.GraphEdgesPerVertex, 97)
	for _, mode := range []string{"baseline", "overload"} {
		row, err := runOverloadMode(tuples, mode, soak, slowCommit)
		if err != nil {
			return nil, fmt.Errorf("bench overload (%s): %w", mode, err)
		}
		rep.Rows = append(rep.Rows, row)
	}
	if base := rep.Rows[0].UpdatesPerSec; base > 0 {
		rep.Knee = rep.Rows[1].UpdatesPerSec / base
	}
	return rep, nil
}

// runOverloadMode soaks one flow-bounded engine with edge churn; in
// "overload" mode processor 1 sleeps at every commit, so the churn is a
// sustained surge against a consumer that cannot keep up.
func runOverloadMode(tuples []stream.Tuple, mode string, soak, slowCommit time.Duration) (OverloadRow, error) {
	const (
		gateCap   = 1024
		inboxHigh = 512
	)
	e, err := engine.New(engine.Config{
		Processors:       4,
		DelayBound:       16,
		Kind:             engine.MainLoop,
		LoopID:           storage.MainLoop,
		Store:            storage.NewMVCCStore(),
		Program:          algorithms.SSSP{Source: 0},
		Seed:             1,
		MaxPendingInputs: gateCap,
		InboxHigh:        inboxHigh,
		InboxLow:         inboxHigh / 4,
	})
	if err != nil {
		return OverloadRow{}, err
	}
	e.Start()
	defer e.Stop()
	e.IngestAll(tuples)
	if err := e.WaitQuiesce(time.Minute); err != nil {
		return OverloadRow{}, err
	}

	row := OverloadRow{Mode: mode, GateCapacity: gateCap, InboxHigh: inboxHigh}
	if mode == "overload" {
		e.SlowProcessor(1, slowCommit)
		defer e.SlowProcessor(1, 0)
	}

	// Sample the deepest inbox while the soak runs: the bound the overload
	// run must demonstrate is a peak, not an average.
	var inboxPeak atomic.Int64
	sampleDone := make(chan struct{})
	go func() {
		defer close(sampleDone)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-sampleDone:
				return
			case <-tick.C:
				if m := int64(e.FlowSnapshot().InboxMax); m > inboxPeak.Load() {
					inboxPeak.Store(m)
				}
			}
		}
	}()

	var edges []stream.Tuple
	for _, t := range tuples {
		if t.Kind == stream.KindAddEdge {
			edges = append(edges, t)
		}
	}
	chunk := edges[:len(edges)/10]
	ts := stream.Timestamp(len(tuples))

	s0 := e.StatsSnapshot()
	fs0 := e.FlowSnapshot()
	var ingestLat []time.Duration
	const ingestChunk = 64
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
			// Ingest in producer-sized chunks and time each call: the gate
			// turns consumer lag into producer latency, which is the
			// quantity this experiment reports.
			for off := 0; off < len(wave); off += ingestChunk {
				end := off + ingestChunk
				if end > len(wave) {
					end = len(wave)
				}
				c0 := time.Now()
				e.IngestAll(wave[off:end])
				ingestLat = append(ingestLat, time.Since(c0))
			}
			row.Waves++
		}
		if err := e.WaitQuiesce(time.Minute); err != nil {
			return OverloadRow{}, err
		}
	}
	elapsed := time.Since(start)
	sampleDone <- struct{}{}
	<-sampleDone

	s1 := e.StatsSnapshot()
	fs1 := e.FlowSnapshot()
	row.Updates = s1.UpdateMsgs - s0.UpdateMsgs
	row.UpdatesPerSec = float64(row.Updates) / elapsed.Seconds()
	row.IngestP50Ms = percentile(ingestLat, 50).Seconds() * 1e3
	row.IngestP99Ms = percentile(ingestLat, 99).Seconds() * 1e3
	row.GatePeak = fs1.GatePeak
	row.InboxPeak = int(inboxPeak.Load())
	row.Stalls = fs1.Stalls - fs0.Stalls
	row.FramesHeld = fs1.FramesHeld - fs0.FramesHeld
	row.PauseSeconds = (fs1.GateWaitTime - fs0.GateWaitTime).Seconds()
	return row, nil
}

// String renders the benchmark table.
func (r *OverloadReport) String() string {
	header := []string{"mode", "waves", "updates/s", "ingest p50", "ingest p99", "gate peak", "inbox peak", "stalls", "held", "paused"}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Mode,
			fmt.Sprintf("%d", row.Waves),
			fmt.Sprintf("%.0f", row.UpdatesPerSec),
			fmt.Sprintf("%.2fms", row.IngestP50Ms),
			fmt.Sprintf("%.2fms", row.IngestP99Ms),
			fmt.Sprintf("%d/%d", row.GatePeak, row.GateCapacity),
			fmt.Sprintf("%d/%d", row.InboxPeak, row.InboxHigh),
			fmt.Sprintf("%d", row.Stalls),
			fmt.Sprintf("%d", row.FramesHeld),
			fmt.Sprintf("%.2fs", row.PauseSeconds),
		})
	}
	return table(header, rows) + fmt.Sprintf("knee: %.2fx of healthy throughput under a slowed consumer (%.0fs soak)\n", r.Knee, r.SoakSeconds)
}

// WriteArtifact writes the report as JSON (the BENCH_overload.json artifact).
func (r *OverloadReport) WriteArtifact(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
