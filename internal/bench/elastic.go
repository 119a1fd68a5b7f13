package bench

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"time"

	"tornado/internal/algorithms"
	"tornado/internal/engine"
	"tornado/internal/flow"
	"tornado/internal/storage"
	"tornado/internal/stream"
)

// ElasticWindow is one measurement window of the elasticity benchmark.
type ElasticWindow struct {
	// Phase is "baseline" (uniform churn) or "skew" (hot-range churn).
	Phase string `json:"phase"`
	// Seconds is the wall time to ingest, propagate, and quiesce the window.
	Seconds float64 `json:"seconds"`
	// TuplesPerSec is the window's sustained churn throughput.
	TuplesPerSec float64 `json:"tuples_per_sec"`
	// HotShare is the hottest partition's share of the window's commits.
	HotShare float64 `json:"hot_share"`
	// Split marks the window after which the planner split the hot partition.
	Split bool `json:"split,omitempty"`
}

// ElasticRow is one mode (split planner on or off) of the benchmark.
type ElasticRow struct {
	Mode         string  `json:"mode"` // "no-split" | "split"
	BaselineUPS  float64 `json:"baseline_tuples_per_sec"`
	SkewUPS      float64 `json:"skew_tuples_per_sec"`
	RecoveredAtS float64 `json:"recovered_at_s"` // seconds after skew onset; -1 = never
	SplitAtS     float64 `json:"split_at_s"`     // seconds after skew onset; -1 = no split
	// SplitStallMS is the split's admission stall: the ScaleOut call, which
	// stops ingestion, waits for rest and restarts under the split plan.
	SplitStallMS float64         `json:"split_stall_ms,omitempty"`
	PlanEpoch    int64           `json:"plan_epoch"`
	Windows      []ElasticWindow `json:"windows"`
}

// ElasticReport is the elastic hot-split experiment: the same range-
// partitioned SSSP loop is driven through a 4x hot-key skew (80% of the
// churn's distinct touched vertices land in the half of the key space one
// partition owns) with an injected per-commit latency making partition
// commit capacity — not the host CPU — the bottleneck. The control run
// rides the skew out; the treatment run feeds per-partition load accounting
// to the flow.ScalePlanner and executes the hot split it orders (a
// repartition onto the spare slot: ingestion stops, the loop rests and
// restarts from its checkpoint under the split plan). Recovery is the first
// post-onset
// window back at >= 80% of the pre-skew baseline throughput.
type ElasticReport struct {
	Scale         string       `json:"scale"`
	Processors    int          `json:"processors"`
	MaxProcessors int          `json:"max_processors"`
	HotWeight     float64      `json:"hot_weight"`
	WaveSources   int          `json:"wave_sources"`
	CommitDelayUS int64        `json:"commit_delay_us"`
	Rows          []ElasticRow `json:"rows"`
	// SkewSpeedup is split over no-split sustained throughput under skew.
	SkewSpeedup float64 `json:"skew_speedup"`
}

const (
	elasticHotWeight   = 0.8
	elasticCommitDelay = 2 * time.Millisecond
	elasticWaveSources = 240
	elasticBaseWindows = 2
	elasticSkewWindows = 6
)

// RunElastic measures throughput recovery from a concentrated hot-key skew
// with and without the pressure-driven hot split.
func RunElastic(s Scale) (*ElasticReport, error) {
	n := s.GraphVertices
	rep := &ElasticReport{
		Scale: s.Name, Processors: 2, MaxProcessors: 3,
		HotWeight: elasticHotWeight, WaveSources: elasticWaveSources,
		CommitDelayUS: elasticCommitDelay.Microseconds(),
	}
	for _, mode := range []string{"no-split", "split"} {
		row, err := runElasticMode(n, mode)
		if err != nil {
			return nil, fmt.Errorf("bench elastic (%s): %w", mode, err)
		}
		rep.Rows = append(rep.Rows, row)
	}
	if base := rep.Rows[0].SkewUPS; base > 0 {
		rep.SkewSpeedup = rep.Rows[1].SkewUPS / base
	}
	return rep, nil
}

// runElasticMode drives one engine through baseline and skew phases. The
// engine is range-partitioned over two base processors (vertex IDs below
// n/2 on slot 0) with one spare slot. Commit coalescing means a partition's
// load is proportional to the DISTINCT vertices its churn touches per
// activation round, so the wave generator skews distinct touched sources —
// and the injected per-commit latency makes that commit work the binding
// resource.
func runElasticMode(n int, mode string) (ElasticRow, error) {
	e, err := engine.New(engine.Config{
		Processors:    2,
		MaxProcessors: 3,
		DelayBound:    16,
		Kind:          engine.MainLoop,
		LoopID:        storage.MainLoop,
		Store:         storage.NewMVCCStore(),
		Program:       algorithms.SSSP{Source: 0},
		Seed:          1,
		Partition: func(id stream.VertexID, procs int) int {
			p := int(id) * procs / n
			if p >= procs {
				p = procs - 1
			}
			return p
		},
		CommitDelay: func(int) time.Duration { return elasticCommitDelay },
	})
	if err != nil {
		return ElasticRow{}, err
	}
	e.Start()
	defer e.Stop()

	// Base structure: one range-local edge per vertex, so every vertex is
	// populated (the median split point then really is the middle of the
	// hot range) and churn stays range-local to its owning partition.
	base := elasticBase(n)
	e.IngestAll(base)
	if err := e.WaitQuiesce(time.Minute); err != nil {
		return ElasticRow{}, err
	}

	row := ElasticRow{Mode: mode, RecoveredAtS: -1, SplitAtS: -1}
	planner := flow.NewScalePlanner(flow.ScalePlannerOptions{
		// The skew concentrates ~80% of the commit work on one of two
		// active partitions (1.6x the mean), below the conservative 2.0
		// default that guards against splitting uniform overload.
		Concentration: 1.5,
		SplitAfter:    2,
	})
	gen := newElasticGen(n, 23)
	prev := e.PartitionLoads()
	var sinceOnset time.Duration

	window := func(phase string, hotWeight float64) (ElasticWindow, time.Duration, error) {
		w := gen.wave(elasticWaveSources, hotWeight)
		start := time.Now()
		e.IngestAll(w)
		if err := e.WaitQuiesce(time.Minute); err != nil {
			return ElasticWindow{}, 0, err
		}
		elapsed := time.Since(start)
		loads := e.PartitionLoads()
		var total, hottest int64
		flowLoads := make([]flow.PartitionLoad, len(loads))
		for i, l := range loads {
			var d int64
			if i < len(prev) && l.Commits >= prev[i].Commits {
				d = l.Commits - prev[i].Commits
			}
			total += d
			if d > hottest {
				hottest = d
			}
			flowLoads[i] = flow.PartitionLoad{
				Proc: l.Proc, Active: l.Active, Scaled: i >= 2,
				Vertices: l.Vertices,
				// The injected per-commit latency makes commit work the
				// binding resource, so the planner weighs commit-rate
				// deltas as its update rate.
				UpdateRate: float64(d) / elapsed.Seconds(),
			}
		}
		prev = loads
		win := ElasticWindow{
			Phase:        phase,
			Seconds:      elapsed.Seconds(),
			TuplesPerSec: float64(len(w)) / elapsed.Seconds(),
		}
		if total > 0 {
			win.HotShare = float64(hottest) / float64(total)
		}
		if mode == "split" && phase == "skew" && e.PlanEpoch() == 0 {
			// Pressure signal: one partition is doing the lion's share of
			// the commit work (healthy over two active partitions is ~50%)
			// AND throughput has measurably degraded — that combination
			// reads as full pressure, which the planner may answer with a
			// split.
			pressure := 0.0
			if win.HotShare >= 0.7 && row.BaselineUPS > 0 &&
				win.TuplesPerSec < 0.9*row.BaselineUPS {
				pressure = 1
			}
			if d := planner.Decide(pressure, flowLoads, true); d.Action == flow.ScaleSplit {
				stall := time.Now()
				if _, err := e.ScaleOut(d.Proc); err != nil {
					return ElasticWindow{}, 0, err
				}
				row.SplitStallMS = float64(time.Since(stall).Microseconds()) / 1e3
				win.Split = true
				row.SplitAtS = (sinceOnset + elapsed).Seconds()
			}
		}
		return win, elapsed, nil
	}

	// Baseline: churn touches both halves of the key space evenly.
	var baseSum float64
	for i := 0; i < elasticBaseWindows; i++ {
		win, _, err := window("baseline", 0.5)
		if err != nil {
			return ElasticRow{}, err
		}
		row.Windows = append(row.Windows, win)
		baseSum += win.TuplesPerSec
	}
	row.BaselineUPS = baseSum / elasticBaseWindows

	// Skew onset: 80% of the distinct touched vertices now fall inside
	// slot 0's range.
	var skewSum float64
	for i := 0; i < elasticSkewWindows; i++ {
		win, elapsed, err := window("skew", elasticHotWeight)
		if err != nil {
			return ElasticRow{}, err
		}
		sinceOnset += elapsed
		row.Windows = append(row.Windows, win)
		skewSum += win.TuplesPerSec
		if row.RecoveredAtS < 0 && win.TuplesPerSec >= 0.8*row.BaselineUPS {
			row.RecoveredAtS = sinceOnset.Seconds()
		}
	}
	row.SkewUPS = skewSum / elasticSkewWindows
	row.PlanEpoch = e.PlanEpoch()
	return row, nil
}

// elasticBase builds the benchmark's base graph: every vertex gets one
// out-edge to its neighbor inside the same half of the key space.
func elasticBase(n int) []stream.Tuple {
	half := n / 2
	out := make([]stream.Tuple, 0, n)
	var ts stream.Timestamp
	for v := 0; v < n; v++ {
		lo, span := 0, half
		if v >= half {
			lo, span = half, n-half
		}
		dst := lo + (v-lo+1)%span
		if dst == v {
			continue
		}
		ts++
		out = append(out, stream.AddEdge(ts, stream.VertexID(v), stream.VertexID(dst)))
	}
	return out
}

// elasticGen deals distinct churn sources from each half of the key space
// (commit coalescing collapses repeated touches of the same vertex, so load
// skew is a skew of distinct touched vertices).
type elasticGen struct {
	rng      *rand.Rand
	n        int
	hot      []int // permutation of [0, n/2)
	cold     []int // permutation of [n/2, n)
	hi, ci   int
	ts       stream.Timestamp
	removeTs bool
}

func newElasticGen(n int, seed int64) *elasticGen {
	rng := rand.New(rand.NewSource(seed))
	half := n / 2
	g := &elasticGen{rng: rng, n: n, ts: stream.Timestamp(2 * n)}
	g.hot = rng.Perm(half)
	g.cold = make([]int, n-half)
	for i, v := range rng.Perm(n - half) {
		g.cold[i] = half + v
	}
	return g
}

// wave emits add/remove churn pairs for `sources` distinct vertices, a
// fraction hotWeight of them from the lower half of the key space. Each
// pair's endpoints stay inside one half (keeping the work range-local) and
// the churn edge points BACKWARD along the base cycle, so it never improves
// the destination's distance: the commit cost of a pair is the source's own
// activation, not an unbounded propagation cascade. That keeps per-window
// commit work proportional to the distinct sources touched — the quantity
// the generator skews.
func (g *elasticGen) wave(sources int, hotWeight float64) []stream.Tuple {
	half := g.n / 2
	out := make([]stream.Tuple, 0, 2*sources)
	for i := 0; i < sources; i++ {
		var src int
		if g.rng.Float64() < hotWeight {
			if g.hi >= len(g.hot) {
				g.hi = 0
			}
			src = g.hot[g.hi]
			g.hi++
		} else {
			if g.ci >= len(g.cold) {
				g.ci = 0
			}
			src = g.cold[g.ci]
			g.ci++
		}
		lo, span := 0, half
		if src >= half {
			lo, span = half, g.n-half
		}
		dst := lo + (src-lo+span-7)%span
		if dst == src {
			continue
		}
		g.ts++
		out = append(out, stream.AddEdge(g.ts, stream.VertexID(src), stream.VertexID(dst)))
		g.ts++
		out = append(out, stream.RemoveEdge(g.ts, stream.VertexID(src), stream.VertexID(dst)))
	}
	return out
}

// String renders the benchmark table.
func (r *ElasticReport) String() string {
	header := []string{"mode", "baseline t/s", "skew t/s", "recovered", "split at", "stall", "epoch", "hot share"}
	var rows [][]string
	for _, row := range r.Rows {
		rec, split, stall := "never", "-", "-"
		if row.RecoveredAtS >= 0 {
			rec = fmt.Sprintf("%.2fs", row.RecoveredAtS)
		}
		if row.SplitAtS >= 0 {
			split = fmt.Sprintf("%.2fs", row.SplitAtS)
			stall = fmt.Sprintf("%.1fms", row.SplitStallMS)
		}
		hot := 0.0
		for _, w := range row.Windows {
			if w.Phase == "skew" && w.HotShare > hot {
				hot = w.HotShare
			}
		}
		rows = append(rows, []string{
			row.Mode,
			fmt.Sprintf("%.0f", row.BaselineUPS),
			fmt.Sprintf("%.0f", row.SkewUPS),
			rec, split, stall,
			fmt.Sprintf("%d", row.PlanEpoch),
			fmt.Sprintf("%.2f", hot),
		})
	}
	return table(header, rows) +
		fmt.Sprintf("skew speedup: %.2fx sustained throughput with the hot split vs without\n", r.SkewSpeedup)
}

// WriteArtifact writes the report as JSON (the BENCH_elastic.json artifact).
func (r *ElasticReport) WriteArtifact(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Failed is the regression gate: the planner must actually split, and the
// split must buy back a measurable share of the lost throughput.
func (r *ElasticReport) Failed() error {
	if len(r.Rows) != 2 {
		return fmt.Errorf("bench elastic: %d rows, want 2", len(r.Rows))
	}
	ctl, split := r.Rows[0], r.Rows[1]
	if split.PlanEpoch < 1 || split.SplitAtS < 0 {
		return fmt.Errorf("bench elastic: planner never split (epoch %d)", split.PlanEpoch)
	}
	if ctl.PlanEpoch != 0 {
		return fmt.Errorf("bench elastic: control run migrated (epoch %d)", ctl.PlanEpoch)
	}
	if r.SkewSpeedup < 1.2 {
		return fmt.Errorf("bench elastic: skew speedup %.2fx < 1.2x — the split did not relieve the hot partition", r.SkewSpeedup)
	}
	return nil
}
