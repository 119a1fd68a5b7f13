// Command tornado-bench regenerates the paper's evaluation artifacts
// (Section 6): every table and figure has a named experiment whose output is
// the same rows/series the paper reports.
//
// Usage:
//
//	tornado-bench [-scale small|full] [-experiment id|all]
//
// Experiment IDs: fig5a fig5b fig5c fig6 fig7 tab2 (includes fig8a) fig8b
// fig8c fig8d fig9 tab3 ablation queries throughput overload trace_overhead delta wire
// store elastic.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"tornado/internal/bench"
	"tornado/internal/obs"
)

type experiment struct {
	id   string
	desc string
	run  func(bench.Scale) (fmt.Stringer, error)
}

func wrap[T fmt.Stringer](f func(bench.Scale) (T, error)) func(bench.Scale) (fmt.Stringer, error) {
	return func(s bench.Scale) (fmt.Stringer, error) {
		r, err := f(s)
		return r, err
	}
}

var experiments = []experiment{
	{"fig5a", "SSSP: batch epoch sweep vs approximate (p99 latency)", wrap(bench.RunFig5a)},
	{"fig5b", "PageRank: batch epoch sweep vs approximate", wrap(bench.RunFig5b)},
	{"fig5c", "KMeans: approximation does not beat small batches", wrap(bench.RunFig5c)},
	{"fig6", "SVM: approximation error vs adaption rate; branch times", wrap(bench.RunFig6)},
	{"fig7", "LR: static vs bold-driver descent rates on drift", wrap(bench.RunFig7)},
	{"tab2", "SSSP loop summaries under delay bounds (with Fig 8a)", wrap(bench.RunTable2)},
	{"fig8b", "LR under delay bounds with a straggler", wrap(bench.RunFig8b)},
	{"fig8c", "SSSP across a master failure", wrap(bench.RunFig8c)},
	{"fig8d", "SSSP across a processor failure", wrap(bench.RunFig8d)},
	{"fig9", "scalability: speedup and message throughput", wrap(bench.RunFig9)},
	{"tab3", "system comparison: spark/graphlab/naiad-like vs tornado", wrap(bench.RunTable3)},
	{"ablation", "design-choice ablations (prepare-skip, fork fast path, store backend)", wrap(bench.RunAblations)},
	{"queries", "query service: latency/throughput at 1/8/64 clients, coalesced vs uncoalesced", wrap(bench.RunQueries)},
	{"throughput", "transport batching: sustained SSSP updates/sec, batched vs unbatched", wrap(bench.RunThroughput)},
	{"overload", "backpressure: updates/sec and p99 ingest latency at the overload knee", wrap(bench.RunOverload)},
	{"trace_overhead", "causal span tracing: SSSP updates/sec at off/1%/100% sampling (3% gate)", wrap(bench.RunTraceOverhead)},
	{"delta", "delta-accumulative PageRank: updates-to-convergence vs value mode on power-law and uniform graphs", wrap(bench.RunDelta)},
	{"wire", "TCP wire: serialization overhead, corruption-storm recovery, multi-process SSSP", wrap(bench.RunWire)},
	{"store", "MVCC store: snapshot-fork latency across vertex counts, churn-soak RSS plateau under compaction", wrap(bench.RunStore)},
	{"elastic", "elastic hot split: throughput recovery from 4x hot-key skew, split planner vs control", wrap(bench.RunElastic)},
}

func main() {
	// The wire experiment re-executes this binary as worker processes; the
	// hook takes over (and exits) when the join variable is set.
	bench.WireWorkerHook()
	scaleFlag := flag.String("scale", "full", "workload scale: small or full")
	expFlag := flag.String("experiment", "all", "experiment id or 'all'")
	listFlag := flag.Bool("list", false, "list experiments and exit")
	metricsFlag := flag.String("metrics", "", "serve /debug/pprof and /statusz on host:port while experiments run (\":0\" picks a port)")
	flag.Parse()

	if *metricsFlag != "" {
		// The bench runners assemble their engines privately, so the
		// endpoint's value here is live profiling (/debug/pprof) of the
		// experiment process rather than per-loop counters.
		hub := obs.NewHub(obs.HubOptions{})
		addr, err := hub.Serve(*metricsFlag)
		if err != nil {
			log.Fatalf("metrics endpoint: %v", err)
		}
		defer func() { _ = hub.Close() }()
		fmt.Printf("observability: http://%s/debug/pprof http://%s/statusz\n", addr, addr)
	}

	if *listFlag {
		for _, e := range experiments {
			fmt.Printf("%-6s %s\n", e.id, e.desc)
		}
		return
	}
	scale, err := bench.ScaleByName(*scaleFlag)
	if err != nil {
		log.Fatal(err)
	}
	ran := 0
	for _, e := range experiments {
		if *expFlag != "all" && *expFlag != e.id {
			continue
		}
		ran++
		fmt.Printf("==> %s (%s scale): %s\n", e.id, scale.Name, e.desc)
		start := time.Now()
		rep, err := e.run(scale)
		if err != nil {
			log.Fatalf("%s: %v", e.id, err)
		}
		fmt.Print(rep.String())
		// Reports that can serialize themselves also leave a JSON artifact
		// next to the working directory (e.g. BENCH_queries.json).
		if w, ok := rep.(interface{ WriteArtifact(string) error }); ok {
			artifact := fmt.Sprintf("BENCH_%s.json", e.id)
			if err := w.WriteArtifact(artifact); err != nil {
				log.Fatalf("%s: write %s: %v", e.id, artifact, err)
			}
			fmt.Printf("    [artifact: %s]\n", artifact)
		}
		// Regression gates fail the run only after the artifact is on disk,
		// so a gate violation still leaves the numbers behind it inspectable.
		if f, ok := rep.(interface{ Failed() error }); ok {
			if gerr := f.Failed(); gerr != nil {
				log.Fatalf("%s: %v", e.id, gerr)
			}
		}
		fmt.Printf("    [%s completed in %v]\n\n", e.id, time.Since(start).Round(time.Millisecond))
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *expFlag)
		os.Exit(2)
	}
}
