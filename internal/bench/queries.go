package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"tornado/internal/algorithms"
	"tornado/internal/engine"
	"tornado/internal/queryserv"
	"tornado/internal/storage"
)

// QueriesRow is one (client count, sharing mode) cell of the query-serving
// benchmark.
type QueriesRow struct {
	Clients   int     `json:"clients"`
	Shared    bool    `json:"shared"` // coalescing + result cache enabled
	Queries   int     `json:"queries"`
	P50Ms     float64 `json:"p50_ms"`
	P99Ms     float64 `json:"p99_ms"`
	QPS       float64 `json:"qps"`
	Forks     int64   `json:"forks"`
	Coalesced int64   `json:"coalesced"`
	CacheHits int64   `json:"cache_hits"`
}

// QueriesReport is the query-service experiment: exact-query latency and
// throughput under concurrent clients, with the serving layers (coalescing
// and the freshness-bounded cache) on versus off. The shape to expect: in
// the uncoalesced column every client pays a private fork, so forks grow
// linearly with clients and tail latency grows with queue depth; with
// sharing on, concurrent identical queries collapse onto a handful of forks
// and p50 drops to cache-read time.
type QueriesReport struct {
	Scale string       `json:"scale"`
	Rows  []QueriesRow `json:"rows"`
}

// RunQueries measures the query service at 1/8/64 concurrent clients.
func RunQueries(s Scale) (*QueriesReport, error) {
	tuples := edgeStream(s, 71)
	store := storage.NewMVCCStore()
	e, err := engine.New(engine.Config{
		Processors: s.Procs,
		DelayBound: 64,
		Kind:       engine.MainLoop,
		LoopID:     storage.MainLoop,
		Store:      store,
		Program:    algorithms.SSSP{Source: 0},
		Seed:       1,
	})
	if err != nil {
		return nil, err
	}
	e.Start()
	defer e.Stop()
	e.IngestAll(tuples)
	if err := e.WaitQuiesce(time.Minute); err != nil {
		return nil, err
	}

	var nextLoop atomic.Uint64
	backend := queryserv.Backend{
		Fork: func(override func(*engine.Config), seed func(*engine.Engine)) (*engine.Engine, engine.ForkSpec, storage.LoopID, error) {
			loop := storage.LoopID(nextLoop.Add(1))
			br, spec, err := e.ForkBranch(loop, override, seed)
			if err != nil {
				return nil, engine.ForkSpec{}, 0, err
			}
			return br, spec, loop, nil
		},
		Drop:       func(loop storage.LoopID) { _ = store.DropLoop(loop) },
		JournalSeq: e.JournalSeq,
	}

	perClient := s.Probes
	if perClient < 4 {
		perClient = 4
	}
	rep := &QueriesReport{Scale: s.Name}
	for _, shared := range []bool{false, true} {
		for _, clients := range []int{1, 8, 64} {
			svc := queryserv.New(backend, queryserv.Options{
				Workers:           s.Procs,
				QueueCap:          clients*perClient + 1,
				DisableCoalescing: !shared,
				DisableCache:      !shared,
			}, nil)
			latencies := make([]time.Duration, 0, clients*perClient)
			var mu sync.Mutex
			var wg sync.WaitGroup
			var firstErr atomic.Value
			start := time.Now()
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for q := 0; q < perClient; q++ {
						t0 := time.Now()
						tk, err := svc.Submit(context.Background(), queryserv.QuerySpec{
							Timeout:        time.Minute,
							MaxStaleDeltas: 1 << 20, // accept any cached instant of this quiescent loop
						})
						if err != nil {
							firstErr.CompareAndSwap(nil, err)
							return
						}
						res, err := tk.Wait(context.Background())
						if err != nil {
							firstErr.CompareAndSwap(nil, err)
							return
						}
						res.Close()
						mu.Lock()
						latencies = append(latencies, time.Since(t0))
						mu.Unlock()
					}
				}()
			}
			wg.Wait()
			elapsed := time.Since(start)
			snap := svc.Snapshot()
			svc.Close()
			if err, ok := firstErr.Load().(error); ok && err != nil {
				return nil, fmt.Errorf("bench queries (%d clients, shared=%v): %w", clients, shared, err)
			}
			rep.Rows = append(rep.Rows, QueriesRow{
				Clients:   clients,
				Shared:    shared,
				Queries:   len(latencies),
				P50Ms:     float64(percentile(latencies, 50).Microseconds()) / 1000,
				P99Ms:     float64(percentile(latencies, 99).Microseconds()) / 1000,
				QPS:       float64(len(latencies)) / elapsed.Seconds(),
				Forks:     snap.Admitted,
				Coalesced: snap.Coalesced,
				CacheHits: snap.CacheHits,
			})
		}
	}
	return rep, nil
}

// String renders the benchmark table.
func (r *QueriesReport) String() string {
	header := []string{"clients", "sharing", "queries", "p50", "p99", "qps", "forks", "coalesced", "cache-hits"}
	var rows [][]string
	for _, row := range r.Rows {
		mode := "off"
		if row.Shared {
			mode = "on"
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", row.Clients),
			mode,
			fmt.Sprintf("%d", row.Queries),
			fmt.Sprintf("%.3fms", row.P50Ms),
			fmt.Sprintf("%.3fms", row.P99Ms),
			fmt.Sprintf("%.0f", row.QPS),
			fmt.Sprintf("%d", row.Forks),
			fmt.Sprintf("%d", row.Coalesced),
			fmt.Sprintf("%d", row.CacheHits),
		})
	}
	return table(header, rows)
}

// WriteArtifact writes the report as JSON (the BENCH_queries.json artifact).
func (r *QueriesReport) WriteArtifact(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
