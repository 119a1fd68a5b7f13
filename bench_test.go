package tornado

// Benchmarks: one testing.B benchmark per table and figure of the paper's
// evaluation (delegating to the runners in internal/bench at small scale,
// reporting the headline quantity of each artifact as a custom metric), plus
// micro-benchmarks of the engine's hot paths. cmd/tornado-bench prints the
// full reports.

import (
	"encoding/gob"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"tornado/internal/algorithms"
	"tornado/internal/bench"
	"tornado/internal/datasets"
	"tornado/internal/engine"
	"tornado/internal/storage"
	"tornado/internal/stream"
)

func reportSeconds(b *testing.B, name string, d time.Duration) {
	b.ReportMetric(d.Seconds(), name)
}

// BenchmarkFig5aSSSPBatchVsApprox reports the p99 latencies of the best
// batch configuration and the approximate method (Figure 5a).
func BenchmarkFig5aSSSPBatchVsApprox(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := bench.RunFig5a(bench.SmallScale)
		if err != nil {
			b.Fatal(err)
		}
		approx, _ := rep.Approximate()
		best, _ := rep.BestBatch()
		reportSeconds(b, "p99-approx-s", approx.P99)
		reportSeconds(b, "p99-best-batch-s", best.P99)
	}
}

// BenchmarkFig5bPageRankBatchVsApprox reports Figure 5b's headline numbers.
func BenchmarkFig5bPageRankBatchVsApprox(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := bench.RunFig5b(bench.SmallScale)
		if err != nil {
			b.Fatal(err)
		}
		approx, _ := rep.Approximate()
		best, _ := rep.BestBatch()
		reportSeconds(b, "p99-approx-s", approx.P99)
		reportSeconds(b, "p99-best-batch-s", best.P99)
	}
}

// BenchmarkFig5cKMeansBatchVsApprox reports Figure 5c's headline numbers
// (the workload where approximation does not help).
func BenchmarkFig5cKMeansBatchVsApprox(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := bench.RunFig5c(bench.SmallScale)
		if err != nil {
			b.Fatal(err)
		}
		approx, _ := rep.Approximate()
		best, _ := rep.BestBatch()
		reportSeconds(b, "p99-approx-s", approx.P99)
		reportSeconds(b, "p99-best-batch-s", best.P99)
	}
}

// BenchmarkFig6SVMAdaptionRate reports the final main-loop objective per
// descent rate (Figure 6a) and the final branch query time (Figure 6b).
func BenchmarkFig6SVMAdaptionRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := bench.RunFig6(bench.SmallScale)
		if err != nil {
			b.Fatal(err)
		}
		for _, label := range []string{"rate=0.5", "rate=0.1"} {
			pts := rep.Error[label]
			b.ReportMetric(pts[len(pts)-1].Value, "final-obj-"+label)
		}
	}
}

// BenchmarkFig7LRBoldDriver reports the final drifting-window error of the
// bold driver against the static rates (Figure 7).
func BenchmarkFig7LRBoldDriver(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := bench.RunFig7(bench.SmallScale)
		if err != nil {
			b.Fatal(err)
		}
		if v, ok := rep.FinalDynamicError(); ok {
			b.ReportMetric(v, "final-err-bold-driver")
		}
		if v, ok := rep.FinalError("rate=0.01"); ok {
			b.ReportMetric(v, "final-err-rate-0.01")
		}
	}
}

// BenchmarkTable2DelayBounds reports per-bound loop totals (Table 2 /
// Figure 8a).
func BenchmarkTable2DelayBounds(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := bench.RunTable2(bench.SmallScale)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range rep.Rows {
			b.ReportMetric(float64(row.Iterations), fmt.Sprintf("iters-B%d", row.Bound))
			b.ReportMetric(float64(row.Prepares), fmt.Sprintf("prepares-B%d", row.Bound))
		}
	}
}

// BenchmarkFig8bStraggler reports time-to-absorb per bound with a straggling
// processor (Figure 8b).
func BenchmarkFig8bStraggler(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := bench.RunFig8b(bench.SmallScale)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range rep.Rows {
			b.ReportMetric(row.Time.Seconds(), fmt.Sprintf("time-B%d-s", row.Bound))
		}
	}
}

// BenchmarkFig8cMasterFailure reports per-bound progress across a master
// failure (Figure 8c).
func BenchmarkFig8cMasterFailure(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := bench.RunFig8c(bench.SmallScale)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range rep.Rows {
			b.ReportMetric(float64(row.DuringFailure), fmt.Sprintf("updates-during-failure-B%d", row.Bound))
		}
	}
}

// BenchmarkFig8dProcessorFailure reports per-bound progress across a
// processor failure (Figure 8d).
func BenchmarkFig8dProcessorFailure(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := bench.RunFig8d(bench.SmallScale)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range rep.Rows {
			b.ReportMetric(float64(row.DuringFailure), fmt.Sprintf("updates-during-failure-B%d", row.Bound))
		}
	}
}

// BenchmarkFig9Scalability reports per-workload speedups at the top of the
// worker sweep (Figure 9a) and the message throughput there (Figure 9b).
func BenchmarkFig9Scalability(b *testing.B) {
	scale := bench.SmallScale
	scale.WorkerSweep = []int{1, 4}
	for i := 0; i < b.N; i++ {
		rep, err := bench.RunFig9(scale)
		if err != nil {
			b.Fatal(err)
		}
		for _, name := range []string{"sssp", "pagerank", "kmeans", "svm"} {
			series := rep.Series(name)
			top := series[len(series)-1]
			b.ReportMetric(top.Speedup, "speedup-"+name)
			b.ReportMetric(top.MsgsPerSec, "msgs-per-s-"+name)
		}
	}
}

// BenchmarkTable3Systems reports the SSSP@20% latency of every system
// (Table 3's headline column).
func BenchmarkTable3Systems(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := bench.RunTable3(bench.SmallScale)
		if err != nil {
			b.Fatal(err)
		}
		row, ok := rep.Row("sssp", 0.20)
		if !ok {
			b.Fatal("missing sssp@20% row")
		}
		reportSeconds(b, "spark-like-s", row.Spark.Latency)
		reportSeconds(b, "graphlab-like-s", row.GraphLab.Latency)
		reportSeconds(b, "naiad-like-s", row.Naiad.Latency)
		reportSeconds(b, "tornado-s", row.Tornado.Latency)
	}
}

// --- Engine micro-benchmarks ------------------------------------------------

// BenchmarkEngineIngestSSSP measures end-to-end main-loop ingestion of a
// power-law graph to quiescence on the store that ships (MVCC).
func BenchmarkEngineIngestSSSP(b *testing.B) {
	tuples := datasets.PowerLawGraph(500, 3, 3)
	b.Run("mvcc", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			st := storage.NewMVCCStore()
			e, err := engine.New(engine.Config{
				Processors: 4, DelayBound: 256, Kind: engine.MainLoop,
				LoopID: storage.MainLoop, Store: st,
				Program: algorithms.SSSP{Source: 0}, Seed: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			e.Start()
			e.IngestAll(tuples)
			if err := e.WaitQuiesce(time.Minute); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(e.StatsSnapshot().Commits), "commits")
			e.Stop()
			st.Close()
		}
		b.ReportMetric(float64(len(tuples)), "tuples")
	})
}

// edgeChurn is the benchmark harness's input stream over a base graph: an
// endless pass over a seeded permutation of its edges in which a tenth of the
// graph is kept missing — remove the next edge of the pass, re-add the one
// removed longest ago — with timestamps after the base's.
type edgeChurn struct {
	base           []stream.Tuple
	order          []int
	removed, added int
	ts             stream.Timestamp
}

func newEdgeChurn(base []stream.Tuple) *edgeChurn {
	return &edgeChurn{base: base, order: rand.New(rand.NewSource(1)).Perm(len(base)), ts: stream.Timestamp(len(base))}
}

// fill overwrites burst with the stream's next len(burst) tuples.
func (c *edgeChurn) fill(burst []stream.Tuple) {
	for k := range burst {
		c.ts++
		if c.removed-c.added >= len(c.base)/10 {
			e := c.base[c.order[c.added%len(c.order)]]
			c.added++
			burst[k] = stream.AddEdge(c.ts, e.Src, e.Dst)
		} else {
			e := c.base[c.order[c.removed%len(c.order)]]
			c.removed++
			burst[k] = stream.RemoveEdge(c.ts, e.Src, e.Dst)
		}
	}
}

// benchForkQuery measures one exact query as the benchmark harness issues it:
// a 64-tuple burst of edge churn lands on a settled loop over base, and the
// query forks at once, so the branch converges behind input the main loop has
// not absorbed. The main loop settles between operations, off the clock. It
// runs once per branch width: width=1 is the default branch, width=4 widens
// it to the main loop's four processors through QueryWith's override. Per
// query it reports the branch's commits, the iterations it ran, the values
// its commits emitted, the vertices it hosted, the stored versions it
// decoded to bootstrap them and the payloads it put on the transport.
func benchForkQuery(b *testing.B, newSys func() (*System, error), base []stream.Tuple) {
	for _, width := range []int{1, 4} {
		var override func(*engine.Config)
		if width > 1 {
			override = func(cfg *engine.Config) { cfg.Processors = width }
		}
		b.Run(fmt.Sprintf("width=%d", width), func(b *testing.B) {
			sys, err := newSys()
			if err != nil {
				b.Fatal(err)
			}
			forkQueries(b, sys, base, override)
		})
	}
}

func forkQueries(b *testing.B, sys *System, base []stream.Tuple, override func(*engine.Config)) {
	defer sys.Close()
	sys.IngestAll(base)
	if err := sys.WaitQuiesce(time.Minute); err != nil {
		b.Fatal(err)
	}
	churn := newEdgeChurn(base)
	burst := make([]stream.Tuple, 64)
	var commits, iters, emits, hosted, loads, payloads int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		churn.fill(burst)
		sys.IngestAll(burst)
		res, err := sys.QueryWith(time.Minute, override, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		br := res.Engine()
		s := br.StatsSnapshot()
		commits, emits, loads = commits+s.Commits, emits+s.Emits, loads+s.SnapshotLoads
		payloads += s.TransportPayloads
		iters += s.Notified + 1 // a branch starts at iteration 0
		for _, l := range br.PartitionLoads() {
			hosted += int64(l.Vertices)
		}
		res.Close()
		if err := sys.WaitQuiesce(time.Minute); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(commits)/float64(b.N), "commits/op")
	b.ReportMetric(float64(iters)/float64(b.N), "iters/op")
	b.ReportMetric(float64(emits)/float64(b.N), "emits/op")
	b.ReportMetric(float64(hosted)/float64(b.N), "hosted/op")
	b.ReportMetric(float64(loads)/float64(b.N), "loads/op")
	b.ReportMetric(float64(payloads)/float64(b.N), "transport/op")
}

// BenchmarkEngineForkQuery is benchForkQuery on sssp_churn_mem's shape:
// value-mode SSSP on PowerLawGraph(5000,4,1).
func BenchmarkEngineForkQuery(b *testing.B) {
	benchForkQuery(b, func() (*System, error) {
		return New(algorithms.SSSP{Source: 0}, Options{})
	}, datasets.PowerLawGraph(5000, 4, 1))
}

// BenchmarkEngineDeltaForkQuery is its delta twin, on pagerank_delta_churn's
// shape: delta-accumulative PageRank on PowerLawGraph(500,4,1).
func BenchmarkEngineDeltaForkQuery(b *testing.B) {
	benchForkQuery(b, func() (*System, error) {
		return NewDelta(algorithms.DeltaPageRank{}, Options{})
	}, datasets.PowerLawGraph(500, 4, 1))
}

// BenchmarkStorePut measures versioned store writes.
func BenchmarkStorePut(b *testing.B) {
	for _, backend := range []string{"mem", "disk"} {
		b.Run(backend, func(b *testing.B) {
			var store storage.Store
			if backend == "mem" {
				store = storage.NewMVCCStore()
			} else {
				disk, err := storage.OpenDisk(b.TempDir() + "/bench.log")
				if err != nil {
					b.Fatal(err)
				}
				defer disk.Close()
				store = disk
			}
			data := make([]byte, 64)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v := stream.VertexID(i % 1024)
				if err := store.Put(storage.MainLoop, v, int64(i), data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStoreSnapshotRead measures snapshot reads (Latest at a bound).
func BenchmarkStoreSnapshotRead(b *testing.B) {
	store := storage.NewMVCCStore()
	data := make([]byte, 64)
	for v := 0; v < 1024; v++ {
		for it := 0; it < 8; it++ {
			if err := store.Put(storage.MainLoop, stream.VertexID(v), int64(it*10), data); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := store.Latest(storage.MainLoop, stream.VertexID(i%1024), 35); err != nil {
			b.Fatal(err)
		}
	}
}

// gobSSSPState has SSSPState's fields but no binary layout, so its blobs
// take the state codec's gob fallback (what an unregistered user type pays).
type gobSSSPState struct {
	Length, Sent int64
	SrcLens      map[stream.VertexID]int64
}

func init() { gob.Register(&gobSSSPState{}) }

// BenchmarkStateCodec measures vertex-version serialization on a blob shaped
// like the benchmark harness's (four producers, four targets): encode is what
// every commit pays, decode what a branch pays per vertex it touches.
func BenchmarkStateCodec(b *testing.B) {
	codec := engine.StateCodec{}
	lens := map[stream.VertexID]int64{17: 4, 230: 6, 1042: 5, 4711: algorithms.Unreachable}
	blob := engine.VertexBlob{
		Targets:     []stream.VertexID{12, 377, 2048, 4999},
		TargetClock: map[stream.VertexID]stream.Timestamp{12: 1200, 377: 45000, 2048: 90210, 4999: 133700, 801: 99000},
	}
	for _, c := range []struct {
		name  string
		state any
	}{
		{"binary", &algorithms.SSSPState{Length: 5, Sent: 5, SrcLens: lens}},
		{"gob-fallback", &gobSSSPState{Length: 5, Sent: 5, SrcLens: lens}},
	} {
		blob.State = c.state
		data, err := codec.AppendBlob(nil, &blob)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name+"/encode", func(b *testing.B) {
			buf := make([]byte, 0, 1024)
			b.ReportAllocs()
			b.ReportMetric(float64(len(data)), "bytes")
			for i := 0; i < b.N; i++ {
				if buf, err = codec.AppendBlob(buf[:0], &blob); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(c.name+"/decode", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := codec.DecodeBlob(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
