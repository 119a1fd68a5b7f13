package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

// childResult is one child run as the parent sees it.
type childResult struct {
	report
	samples samples
}

// runChild runs one (workload, seed) in a fresh process, so peak RSS, GC
// state and a stalled loop never leak from one run into the next, and kills
// it if it outlives the run's own hard limit.
func runChild(w string, seed int64, seconds float64, traced bool, out string) (childResult, error) {
	self, err := os.Executable()
	if err != nil {
		return childResult{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), hardLimit+10*time.Second)
	defer cancel()
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, self, "--workload", w, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds), "--trace", trace, "--out", out)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res childResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res.report); err != nil {
		return res, fmt.Errorf("%s seed %d: no report (%v): %w", w, seed, runErr, err)
	}
	if !traced {
		if data, err := os.ReadFile(filepath.Join(out, "samples.json")); err == nil {
			_ = json.Unmarshal(data, &res.samples) // a missing or torn file only loses the pooled percentiles
		}
	}
	return res, runErr
}

// suiteMain runs every workload untraced (repeats interleaved across
// workloads) and then traced, and prints one table per workload: each
// end-to-end metric as the median over repeats, percentiles re-taken over
// the pooled samples of all repeats, then the per-layer numbers. With
// calibrate it does that for several sets and writes each end-to-end
// metric's bound into BENCHMARK.json.
func suiteMain(args []string, calibrate bool) int {
	fs := flag.NewFlagSet("suite", flag.ExitOnError)
	repeats := fs.Int("repeats", 3, "untraced runs per workload and set")
	seed := fs.Int64("seed", 1, "seed of the first repeat; repeat r uses seed+r")
	seconds := fs.Float64("seconds", 0, "measured window per run (default: run_seconds of BENCHMARK.json)")
	only := fs.String("workload", "", "run this workload only")
	out := fs.String("out", filepath.Join(".bench_build", "out"), "directory for samples, traces and results.json")
	sets := fs.Int("sets", 5, "calibrate: number of sets")
	_ = fs.Parse(args)
	man, err := loadManifest()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if *seconds <= 0 {
		*seconds = float64(man.RunSeconds)
	}
	if !calibrate {
		*sets = 1
	}
	var names []string
	for _, w := range workloads {
		if *only == "" || *only == w.name {
			names = append(names, w.name)
		}
	}

	failed := false
	perRun := map[string]map[string][]float64{} // workload → end-to-end metric → one value per untraced run
	pooled := map[string]*samples{}
	ops := map[string][2]int{} // workload → attempted, failed
	layers := map[string]map[string]metricValue{}
	for set := 0; set < *sets; set++ {
		for r := 0; r < *repeats; r++ {
			for _, w := range names {
				s := *seed + int64(set**repeats+r)
				dir := filepath.Join(*out, w, fmt.Sprintf("r%d", r))
				if err := os.MkdirAll(dir, 0o755); err != nil {
					fmt.Fprintln(os.Stderr, "benchmark:", err)
					return 2
				}
				res, err := runChild(w, s, *seconds, false, dir)
				fmt.Printf("set %d repeat %d %s seed %d: attempted %d failed %d correct %v\n", set, r, w, s, res.Attempted, res.Failed, res.Correct)
				if err != nil {
					fmt.Fprintln(os.Stderr, "benchmark:", err)
					failed = true
				}
				if perRun[w] == nil {
					perRun[w], pooled[w] = map[string][]float64{}, &samples{}
				}
				for name, v := range res.Metrics {
					perRun[w][name] = append(perRun[w][name], v.Value)
				}
				pooled[w].CommitMS = append(pooled[w].CommitMS, res.samples.CommitMS...)
				pooled[w].QueryMS = append(pooled[w].QueryMS, res.samples.QueryMS...)
				ops[w] = [2]int{ops[w][0] + res.Attempted, ops[w][1] + res.Failed}
			}
		}
	}
	for _, w := range names {
		res, err := runChild(w, *seed, *seconds, true, filepath.Join(*out, w, "r0"))
		fmt.Printf("traced %s: correct %v\n", w, res.Correct)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			failed = true
		}
		layers[w] = res.Metrics
	}

	worst := map[string]float64{} // end-to-end metric → widest run-to-run spread over the workloads
	for _, w := range names {
		fmt.Printf("\n== %s: ops_attempted %d ops_failed %d (%d untraced runs)\n", w, ops[w][0], ops[w][1], len(perRun[w]["setup_s"]))
		cs, qs := summarize(pooled[w].CommitMS, 99), summarize(pooled[w].QueryMS, 99)
		for _, d := range man.EndToEnd {
			v := perRun[w][d.Name]
			spread := iqrShare(v)
			worst[d.Name] = math.Max(worst[d.Name], spread)
			fmt.Printf("%-36s %14.4f %-9s median of %d runs, quartile spread %.1f%%", d.Name, median(v), d.Unit, len(v), 100*spread)
			switch d.Name {
			case "ingest_commit_p50_ms":
				fmt.Printf("; as measured, pooled: p50 %.4f, p%g %.4f (n=%d)", cs.p50, cs.tailAt, cs.tail, cs.n)
			case "query_exact_p50_ms":
				fmt.Printf("; as measured, pooled: p50 %.4f, p%g %.4f (n=%d)", qs.p50, qs.tailAt, qs.tail, qs.n)
			}
			fmt.Println()
		}
		for _, d := range man.PerLayer {
			fmt.Printf("%-36s %14.4f %s\n", d.Name, layers[w][d.Name].Value, d.Unit)
		}
	}
	results, err := json.MarshalIndent(map[string]any{"config_deviation": configDeviation, "seconds": *seconds,
		"end_to_end_per_run": perRun, "per_layer": layers}, "", "  ")
	if err == nil {
		err = os.WriteFile(filepath.Join(*out, "results.json"), results, 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if failed {
		return 1
	}
	if calibrate {
		return writeBounds(man, worst)
	}
	return 0
}

// writeBounds sets every end-to-end metric's bound to twice its widest
// measured run-to-run spread, no lower than 10 % and no higher than the
// 25 % a bound may be.
func writeBounds(man *manifest, worst map[string]float64) int {
	for i, d := range man.EndToEnd {
		b := math.Round(100*math.Min(0.25, math.Max(0.10, 2*worst[d.Name]))) / 100
		man.EndToEnd[i].Bound = &b
		fmt.Printf("bound %-28s %.2f (widest spread %.1f%%)\n", d.Name, b, 100*worst[d.Name])
	}
	data, err := json.MarshalIndent(man, "", "  ")
	if err == nil {
		err = os.WriteFile(man.path, append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	return 0
}
