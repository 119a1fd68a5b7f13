package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"time"

	"tornado/internal/algorithms"
	"tornado/internal/datasets"
	"tornado/internal/engine"
	"tornado/internal/storage"
	"tornado/internal/stream"
	"tornado/internal/wirenode"
)

// WireRow is one leg of the wire-transport benchmark.
type WireRow struct {
	// Mode: "inmem" (channel transport baseline), "wire" (same engine with
	// every frame detoured through the TCP loopback codec), "storm" (the
	// wire engine under a corruption burst, timing recovery after heal),
	// "cluster" (one master + worker OS processes over real sockets).
	Mode          string  `json:"mode"`
	Seconds       float64 `json:"seconds"`
	Updates       int64   `json:"updates,omitempty"`
	UpdatesPerSec float64 `json:"updates_per_sec,omitempty"`
	// Wire counters (deltas over the leg; zero for inmem).
	TxFrames      int64   `json:"tx_frames,omitempty"`
	TxBytes       int64   `json:"tx_bytes,omitempty"`
	BytesPerFrame float64 `json:"bytes_per_frame,omitempty"`
	Reconnects    int64   `json:"reconnects,omitempty"`
	ChecksumFails int64   `json:"checksum_failures,omitempty"`
	Resends       int64   `json:"resends,omitempty"`
	// RecoverySeconds (storm only): heal-to-quiescence time — how long the
	// resend ledger takes to repair everything the corrupted wire ate.
	RecoverySeconds float64 `json:"recovery_seconds,omitempty"`
	// Cluster columns: worker process count and whether the distributed
	// fixed point matched the single-process BFS reference exactly.
	Workers   int  `json:"workers,omitempty"`
	Reachable int  `json:"reachable,omitempty"`
	Exact     bool `json:"exact,omitempty"`
}

// WireReport compares the in-memory channel transport against the real TCP
// wire on the same SSSP churn workload. The paper's numbers come from a real
// cluster; this report measures what the socket substrate costs us (encode +
// CRC + syscall per frame), proves corruption is repaired rather than
// delivered (storm leg), and demands the multi-process run land on the exact
// reference fixed point (cluster leg).
type WireReport struct {
	Scale      string    `json:"scale"`
	Processors int       `json:"processors"`
	Waves      int       `json:"waves"`
	Rows       []WireRow `json:"rows"`
	// OverheadX is wire wall-clock over inmem wall-clock for the identical
	// workload: the price of real serialization on this box.
	OverheadX float64 `json:"overhead_x"`
}

// wireJoinEnv is the re-exec hook: a process started with this variable set
// becomes a cluster-leg worker instead of whatever its binary normally does.
const wireJoinEnv = "TORNADO_BENCH_WIRE_JOIN"

// WireWorkerHook turns the current process into a wire-bench worker when the
// re-exec environment variable is set, and never returns in that case. Host
// binaries (cmd/tornado-bench and the bench test binary) call it first thing
// so RunWire can spawn worker processes by re-executing themselves.
func WireWorkerHook() {
	addr := os.Getenv(wireJoinEnv)
	if addr == "" {
		return
	}
	err := wirenode.RunWorker(wirenode.WorkerConfig{MasterAddr: addr, Timeout: 10 * time.Minute})
	if err != nil {
		fmt.Fprintln(os.Stderr, "wire bench worker:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// RunWire measures the cost and the recovery behavior of the TCP wire.
func RunWire(s Scale) (*WireReport, error) {
	waves := 20
	clusterWorkers := 3
	stormDwell := time.Second
	if s.Name == "small" {
		waves = 4
		clusterWorkers = 2
		stormDwell = 300 * time.Millisecond
	}
	rep := &WireReport{Scale: s.Name, Processors: 4, Waves: waves}
	tuples := datasets.PowerLawGraph(s.GraphVertices, s.GraphEdgesPerVertex, 83)
	// The cluster leg measures real multi-process sockets and demands
	// exactness; it is not a scale test. Cap its graph so N gob-encoding
	// worker processes sharing a small box converge inside the deadline.
	clusterTuples := tuples
	if s.GraphVertices > 1500 {
		clusterTuples = datasets.PowerLawGraph(1500, s.GraphEdgesPerVertex, 83)
	}

	inmem, base, err := runWireChurn(tuples, waves, nil)
	if err != nil {
		return nil, fmt.Errorf("bench wire (inmem): %w", err)
	}
	base.Stop()
	inmem.Mode = "inmem"
	rep.Rows = append(rep.Rows, inmem)

	wired, e, err := runWireChurn(tuples, waves, &engine.WireSpec{})
	if err != nil {
		return nil, fmt.Errorf("bench wire (wire): %w", err)
	}
	wired.Mode = "wire"
	rep.Rows = append(rep.Rows, wired)
	if inmem.Seconds > 0 {
		rep.OverheadX = wired.Seconds / inmem.Seconds
	}

	// Storm leg: keep the wired engine, byte-corrupt a quarter of its
	// frames while churning, then heal and time the repair. The CRC turns
	// corruption into connection drops; the resend ledger re-delivers.
	storm, err := runWireStorm(e, tuples, stormDwell)
	e.Stop()
	if err != nil {
		return nil, fmt.Errorf("bench wire (storm): %w", err)
	}
	rep.Rows = append(rep.Rows, storm)

	cluster, err := runWireCluster(clusterTuples, clusterWorkers)
	if err != nil {
		return nil, fmt.Errorf("bench wire (cluster): %w", err)
	}
	rep.Rows = append(rep.Rows, cluster)
	return rep, nil
}

// runWireChurn builds one engine (wire == nil: channel transport), ingests
// the graph, then runs remove/re-add churn waves with a quiesce barrier per
// wave. The returned engine is still running (wire legs reuse it for the
// storm); callers own Stop.
func runWireChurn(tuples []stream.Tuple, waves int, wire *engine.WireSpec) (WireRow, *engine.Engine, error) {
	e, err := engine.New(engine.Config{
		Processors:  4,
		DelayBound:  64,
		Kind:        engine.MainLoop,
		LoopID:      storage.MainLoop,
		Store:       storage.NewMVCCStore(),
		Program:     algorithms.SSSP{Source: 0},
		Seed:        83,
		ResendAfter: 20 * time.Millisecond,
		MaxBatch:    256,
		Wire:        wire,
	})
	if err != nil {
		return WireRow{}, nil, err
	}
	e.Start()
	var edges []stream.Tuple
	for _, t := range tuples {
		if t.Kind == stream.KindAddEdge {
			edges = append(edges, t)
		}
	}
	chunk := edges[:len(edges)/10]
	ts := stream.Timestamp(len(tuples))

	s0 := e.StatsSnapshot()
	start := time.Now()
	e.IngestAll(tuples)
	if err := e.WaitQuiesce(2 * time.Minute); err != nil {
		e.Stop()
		return WireRow{}, nil, err
	}
	wave := make([]stream.Tuple, len(chunk))
	for w := 0; w < waves; w++ {
		for i, t := range chunk {
			if w%2 == 0 {
				wave[i] = stream.RemoveEdge(ts, t.Src, t.Dst)
			} else {
				wave[i] = stream.AddEdge(ts, t.Src, t.Dst)
			}
			ts++
		}
		e.IngestAll(wave)
		if err := e.WaitQuiesce(2 * time.Minute); err != nil {
			e.Stop()
			return WireRow{}, nil, err
		}
	}
	row := wireDelta(s0, e.StatsSnapshot(), time.Since(start))
	return row, e, nil
}

// runWireStorm corrupts a quarter of the running engine's frames, churns
// under the storm, heals, and times heal-to-quiescence.
func runWireStorm(e *engine.Engine, tuples []stream.Tuple, dwell time.Duration) (WireRow, error) {
	var edges []stream.Tuple
	for _, t := range tuples {
		if t.Kind == stream.KindAddEdge {
			edges = append(edges, t)
		}
	}
	chunk := edges[:len(edges)/10]
	// Timestamps far past anything the churn legs used.
	ts := stream.Timestamp(100 * len(tuples))

	s0 := e.StatsSnapshot()
	start := time.Now()
	if !e.SetWireCorrupt(0.25) {
		return WireRow{}, fmt.Errorf("engine has no wire to corrupt")
	}
	wave := make([]stream.Tuple, 0, 2*len(chunk))
	for _, t := range chunk {
		wave = append(wave, stream.RemoveEdge(ts, t.Src, t.Dst))
		ts++
	}
	for _, t := range chunk {
		wave = append(wave, stream.AddEdge(ts, t.Src, t.Dst))
		ts++
	}
	e.IngestAll(wave)
	time.Sleep(dwell)
	e.SetWireCorrupt(0)
	healed := time.Now()
	if err := e.WaitQuiesce(2 * time.Minute); err != nil {
		return WireRow{}, err
	}
	row := wireDelta(s0, e.StatsSnapshot(), time.Since(start))
	row.Mode = "storm"
	row.RecoverySeconds = time.Since(healed).Seconds()
	return row, nil
}

// runWireCluster re-executes this binary as worker processes (WireWorkerHook
// flips them into workers) and runs the distributed SSSP master in-process,
// checking the result against the single-process BFS reference.
func runWireCluster(tuples []stream.Tuple, workers int) (WireRow, error) {
	self, err := os.Executable()
	if err != nil {
		return WireRow{}, err
	}
	var edges []wirenode.Edge
	for _, t := range tuples {
		if t.Kind == stream.KindAddEdge {
			edges = append(edges, wirenode.Edge{Src: uint64(t.Src), Dst: uint64(t.Dst), W: 1})
		}
	}
	addrCh := make(chan string, 1)
	procs := make(chan *exec.Cmd, workers)
	go func() {
		addr := <-addrCh
		for i := 0; i < workers; i++ {
			cmd := exec.Command(self)
			cmd.Env = append(os.Environ(), wireJoinEnv+"="+addr)
			cmd.Stderr = os.Stderr
			if err := cmd.Start(); err != nil {
				fmt.Fprintln(os.Stderr, "wire bench: starting worker:", err)
				return
			}
			procs <- cmd
		}
		close(procs)
	}()
	defer func() {
		for cmd := range procs {
			done := make(chan error, 1)
			go func() { done <- cmd.Wait() }()
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				_ = cmd.Process.Kill()
				<-done
			}
		}
	}()
	start := time.Now()
	dists, err := wirenode.RunMaster(wirenode.MasterConfig{
		ListenAddr: "127.0.0.1:0",
		Workers:    workers,
		Edges:      edges,
		Source:     0,
		OnListen:   func(a string) { addrCh <- a },
		Timeout:    10 * time.Minute,
	})
	if err != nil {
		return WireRow{}, err
	}
	row := WireRow{
		Mode:      "cluster",
		Seconds:   time.Since(start).Seconds(),
		Workers:   workers,
		Reachable: len(dists),
		Exact:     true,
	}
	want := refWireSSSP(edges, 0)
	if len(dists) != len(want) {
		row.Exact = false
	}
	for v, d := range want {
		if dists[v] != d {
			row.Exact = false
			break
		}
	}
	return row, nil
}

// refWireSSSP is the single-process reference: BFS layers (unit weights).
func refWireSSSP(edges []wirenode.Edge, source uint64) map[uint64]int64 {
	adj := make(map[uint64][]uint64)
	for _, e := range edges {
		adj[e.Src] = append(adj[e.Src], e.Dst)
	}
	dist := map[uint64]int64{source: 0}
	frontier := []uint64{source}
	for d := int64(1); len(frontier) > 0; d++ {
		var next []uint64
		for _, v := range frontier {
			for _, t := range adj[v] {
				if _, seen := dist[t]; !seen {
					dist[t] = d
					next = append(next, t)
				}
			}
		}
		frontier = next
	}
	return dist
}

func wireDelta(s0, s1 engine.StatsSnapshot, elapsed time.Duration) WireRow {
	row := WireRow{
		Seconds:       elapsed.Seconds(),
		Updates:       s1.UpdateMsgs - s0.UpdateMsgs,
		TxFrames:      s1.WireTxFrames - s0.WireTxFrames,
		TxBytes:       s1.WireTxBytes - s0.WireTxBytes,
		Reconnects:    s1.WireReconnects - s0.WireReconnects,
		ChecksumFails: s1.WireChecksumFailures - s0.WireChecksumFailures,
		Resends:       s1.TransportResent - s0.TransportResent,
	}
	if elapsed > 0 {
		row.UpdatesPerSec = float64(row.Updates) / elapsed.Seconds()
	}
	if row.TxFrames > 0 {
		row.BytesPerFrame = float64(row.TxBytes) / float64(row.TxFrames)
	}
	return row
}

// String renders the benchmark table.
func (r *WireReport) String() string {
	header := []string{"mode", "seconds", "updates/s", "tx frames", "B/frame", "reconnects", "crc fails", "resends", "extra"}
	var rows [][]string
	for _, row := range r.Rows {
		extra := ""
		switch row.Mode {
		case "storm":
			extra = fmt.Sprintf("recovered in %.2fs", row.RecoverySeconds)
		case "cluster":
			extra = fmt.Sprintf("%d workers, %d reachable, exact=%v", row.Workers, row.Reachable, row.Exact)
		}
		rows = append(rows, []string{
			row.Mode,
			fmt.Sprintf("%.2f", row.Seconds),
			fmt.Sprintf("%.0f", row.UpdatesPerSec),
			fmt.Sprintf("%d", row.TxFrames),
			fmt.Sprintf("%.0f", row.BytesPerFrame),
			fmt.Sprintf("%d", row.Reconnects),
			fmt.Sprintf("%d", row.ChecksumFails),
			fmt.Sprintf("%d", row.Resends),
			extra,
		})
	}
	return table(header, rows) +
		fmt.Sprintf("wire overhead: %.2fx wall-clock over the in-memory transport (%d churn waves)\n", r.OverheadX, r.Waves)
}

// WriteArtifact writes the report as JSON (the BENCH_wire.json artifact).
func (r *WireReport) WriteArtifact(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Failed gates the regression: the wire must actually carry frames, the
// storm must have seen (and survived) real corruption, and the cluster run
// must land on the exact reference fixed point.
func (r *WireReport) Failed() error {
	for _, row := range r.Rows {
		switch row.Mode {
		case "wire":
			if row.TxFrames == 0 {
				return fmt.Errorf("wire leg moved no frames")
			}
		case "storm":
			if row.ChecksumFails == 0 {
				return fmt.Errorf("storm leg saw no checksum failures: corruption was not exercised")
			}
		case "cluster":
			if !row.Exact {
				return fmt.Errorf("cluster leg diverged from the reference fixed point")
			}
		}
	}
	return nil
}
