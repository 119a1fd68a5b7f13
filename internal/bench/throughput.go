package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"tornado/internal/algorithms"
	"tornado/internal/datasets"
	"tornado/internal/engine"
	"tornado/internal/storage"
	"tornado/internal/stream"
)

// ThroughputRow is one transport mode of the batching benchmark.
type ThroughputRow struct {
	Mode             string  `json:"mode"` // "unbatched" | "batched"
	Waves            int     `json:"waves"`
	Updates          int64   `json:"updates"`
	UpdatesPerSec    float64 `json:"updates_per_sec"`
	AllocsPerUpdate  float64 `json:"allocs_per_update"`
	DataFrames       int64   `json:"data_frames"`
	PayloadsPerFrame float64 `json:"payloads_per_frame"`
	Coalesced        int64   `json:"coalesced"`
}

// ThroughputReport is the transport-batching experiment: the same SSSP
// edge-churn soak on the shipping in-process configuration, driven with every
// message a frame of its own (MaxBatch 1) and with frames of up to 256
// messages. Both coalesce updates within a receive window — there is one
// dispatch path. Speedup is batched over unbatched sustained updates/sec.
type ThroughputReport struct {
	Scale       string          `json:"scale"`
	Processors  int             `json:"processors"`
	SoakSeconds float64         `json:"soak_seconds"`
	Rows        []ThroughputRow `json:"rows"`
	Speedup     float64         `json:"speedup"`
}

// RunThroughput measures sustained SSSP update throughput at 4 processors
// under continuous edge churn, batched versus unbatched.
func RunThroughput(s Scale) (*ThroughputReport, error) {
	soak := 60 * time.Second
	if s.Name == "small" {
		soak = 3 * time.Second
	}
	rep := &ThroughputReport{Scale: s.Name, Processors: 4, SoakSeconds: soak.Seconds()}
	// Higher fanout than the shared scale: every commit scatters to ~10
	// consumers, so the message plane — the thing this experiment measures —
	// carries the load rather than per-vertex compute.
	tuples := datasets.PowerLawGraph(s.GraphVertices, 10, 91)
	for _, mode := range []string{"unbatched", "batched"} {
		row, err := runThroughputMode(tuples, mode, soak)
		if err != nil {
			return nil, fmt.Errorf("bench throughput (%s): %w", mode, err)
		}
		rep.Rows = append(rep.Rows, row)
	}
	if base := rep.Rows[0].UpdatesPerSec; base > 0 {
		rep.Speedup = rep.Rows[1].UpdatesPerSec / base
	}
	return rep, nil
}

// runThroughputMode soaks one engine: ingest the base graph, quiesce, then
// remove and re-add a tenth of the edges over and over until the deadline.
// Throughput is committed update messages per second of soak wall-clock.
func runThroughputMode(tuples []stream.Tuple, mode string, soak time.Duration) (ThroughputRow, error) {
	maxBatch := 256
	if mode == "unbatched" {
		maxBatch = 1
	}
	e, err := engine.New(engine.Config{
		Processors: 4,
		DelayBound: 64,
		Kind:       engine.MainLoop,
		LoopID:     storage.MainLoop,
		Store:      storage.NewMVCCStore(),
		Program:    algorithms.SSSP{Source: 0},
		Seed:       1,
		// Full-scale receive windows outgrow the default frame cap of 64
		// (the 60s soak averages ~54 payloads/frame against it); a larger
		// cap lets frame sizes track the window instead of truncating.
		MaxBatch: maxBatch,
	})
	if err != nil {
		return ThroughputRow{}, err
	}
	e.Start()
	defer e.Stop()
	e.IngestAll(tuples)
	if err := e.WaitQuiesce(time.Minute); err != nil {
		return ThroughputRow{}, err
	}

	// The churn set: a tenth of the edges, retracted and re-added per wave
	// with a monotonically advancing timestamp (target clocks require it).
	var edges []stream.Tuple
	for _, t := range tuples {
		if t.Kind == stream.KindAddEdge {
			edges = append(edges, t)
		}
	}
	chunk := edges[:len(edges)/10]
	ts := stream.Timestamp(len(tuples))

	row := ThroughputRow{Mode: mode}
	s0 := e.StatsSnapshot()
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	deadline := start.Add(soak)
	wave := make([]stream.Tuple, len(chunk))
	// Keep several waves in flight between quiesce barriers: a saturated
	// loop is where frame sizes and coalescing windows grow, and it is the
	// steady state an ingest-bound deployment actually runs in. The barrier
	// every few waves bounds in-flight memory.
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
			return ThroughputRow{}, err
		}
	}
	elapsed := time.Since(start)
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	s1 := e.StatsSnapshot()

	row.Updates = s1.UpdateMsgs - s0.UpdateMsgs
	row.UpdatesPerSec = float64(row.Updates) / elapsed.Seconds()
	if row.Updates > 0 {
		row.AllocsPerUpdate = float64(m1.Mallocs-m0.Mallocs) / float64(row.Updates)
	}
	row.DataFrames = s1.TransportSent - s0.TransportSent
	if row.DataFrames > 0 {
		row.PayloadsPerFrame = float64(s1.TransportPayloads-s0.TransportPayloads) / float64(row.DataFrames)
	}
	row.Coalesced = s1.Coalesced - s0.Coalesced
	return row, nil
}

// String renders the benchmark table.
func (r *ThroughputReport) String() string {
	header := []string{"mode", "waves", "updates/s", "allocs/upd", "frames", "payloads/frame", "coalesced"}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Mode,
			fmt.Sprintf("%d", row.Waves),
			fmt.Sprintf("%.0f", row.UpdatesPerSec),
			fmt.Sprintf("%.1f", row.AllocsPerUpdate),
			fmt.Sprintf("%d", row.DataFrames),
			fmt.Sprintf("%.2f", row.PayloadsPerFrame),
			fmt.Sprintf("%d", row.Coalesced),
		})
	}
	return table(header, rows) + fmt.Sprintf("speedup: %.2fx over %.0fs soak\n", r.Speedup, r.SoakSeconds)
}

// WriteArtifact writes the report as JSON (the BENCH_throughput.json
// artifact).
func (r *ThroughputReport) WriteArtifact(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
