// Command benchmark is Tornado's one benchmark: it drives the public API of
// the root tornado package on its shipping configuration through four
// workloads, checks every run against a sequential reference, and measures
// the layers from outside. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// hardLimit ends a run that neither finishes nor trips the watchdog.
const hardLimit = 170 * time.Second

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of a run's standard output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	args := os.Args[1:]
	switch {
	case len(args) == 0:
		os.Exit(suiteMain(nil, false))
	case args[0] == "suite" || args[0] == "calibrate":
		os.Exit(suiteMain(args[1:], args[0] == "calibrate"))
	default:
		os.Exit(runMain(args))
	}
}

// runMain is one run of one workload: the form the driver invokes.
func runMain(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ExitOnError)
	name := fs.String("workload", "", "workload to run (required)")
	seed := fs.Int64("seed", 1, "seed the inputs are generated from")
	seconds := fs.Float64("seconds", 0, "length of the measured window (default: run_seconds of BENCHMARK.json)")
	trace := fs.Int("trace", 0, "1: the traced pass (per-layer metrics, trace.json, cpu.pprof)")
	out := fs.String("out", "", "directory for trace.json, cpu.pprof and samples.json (default .bench_build/out/<workload>)")
	_ = fs.Parse(args)

	man, err := loadManifest()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		return 2
	}
	if *seconds <= 0 {
		*seconds = float64(man.RunSeconds)
	}
	if *out == "" {
		*out = filepath.Join(".bench_build", "out", w.name)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	cfg := runConfig{w: w, seed: *seed, seconds: *seconds, traced: *trace != 0, outDir: *out}

	fmt.Printf("workload %s seed %d seconds %g trace %d config %s\n", w.name, cfg.seed, cfg.seconds, *trace, configDeviation)
	type outcome struct {
		res *runResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := run(cfg)
		done <- outcome{res, err}
	}()
	var o outcome
	select {
	case o = <-done:
	case <-time.After(hardLimit):
		o = outcome{&runResult{attempted: 1, failed: 1}, fmt.Errorf("%w: run exceeded %v", errWatchdog, hardLimit)}
	}
	if o.err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: run failed:", o.err)
	}
	printRun(man, cfg, o.res)
	if o.err != nil || !o.res.correct {
		return 1
	}
	return 0
}

// makeReport builds the one-line report of a pass from the metrics
// BENCHMARK.json lists for it. A run whose output was wrong (or that the
// watchdog ended) has failed every operation it attempted.
func makeReport(man *manifest, traced bool, res *runResult) report {
	defs, values := man.EndToEnd, res.endToEnd
	if traced {
		defs, values = man.PerLayer, res.layers
	}
	rep := report{Correct: res.correct, Attempted: max(res.attempted, 1), Failed: res.failed, Metrics: map[string]metricValue{}}
	if !res.correct {
		rep.Failed = rep.Attempted
	}
	for _, d := range defs {
		rep.Metrics[d.Name] = metricValue{values[d.Name], d.Unit}
	}
	return rep
}

// printRun prints every metric of the pass by name and unit, then the
// one-line report.
func printRun(man *manifest, cfg runConfig, res *runResult) {
	rep := makeReport(man, cfg.traced, res)
	defs := man.EndToEnd
	if cfg.traced {
		defs = man.PerLayer
	}
	for _, d := range defs {
		fmt.Printf("%-36s %14.4f %s\n", d.Name, rep.Metrics[d.Name].Value, d.Unit)
	}
	for _, n := range res.notes {
		fmt.Println("note:", n)
	}
	fmt.Printf("ops_attempted %d ops_failed %d\n", rep.Attempted, rep.Failed)
	line, _ := json.Marshal(rep) // a map of floats and strings cannot fail to marshal
	fmt.Println(string(line))
}

// manifest is BENCHMARK.json: the metric names, units and bounds every
// later change is judged by.
type manifest struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`

	path string // where it was read from
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDef struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// loadManifest finds BENCHMARK.json in the working directory (the root of a
// checkout) or one level up (go test runs in benchmark/).
func loadManifest() (*manifest, error) {
	for _, p := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		data, err := os.ReadFile(p)
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			return nil, err
		}
		m := manifest{path: p}
		if err := json.Unmarshal(data, &m); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &m, nil
	}
	return nil, errors.New("BENCHMARK.json not found; run from the root of the checkout")
}
