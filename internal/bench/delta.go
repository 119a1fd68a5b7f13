package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"time"

	"tornado/internal/algorithms"
	"tornado/internal/datasets"
	"tornado/internal/engine"
	"tornado/internal/storage"
	"tornado/internal/stream"
)

// DeltaRow is one (graph, mode) cell of the delta-execution benchmark.
type DeltaRow struct {
	Graph string `json:"graph"` // "powerlaw" | "uniform"
	Mode  string `json:"mode"`  // "value" | "delta"
	// UpdateMsgs is the number of update messages sent to reach the fixed
	// point; Commits the number of vertex commits. Updates-to-convergence is
	// the experiment's headline metric.
	UpdateMsgs int64   `json:"update_msgs"`
	Commits    int64   `json:"commits"`
	WallMs     float64 `json:"wall_ms"`
	// DeltaMerged / DeltaParked are delta-mode only: gathers folded into an
	// already-pending slot, and sub-threshold pendings parked without an
	// activation (the selective-activation savings).
	DeltaMerged int64 `json:"delta_merged,omitempty"`
	DeltaParked int64 `json:"delta_parked,omitempty"`
	// MaxRankErr is the worst |rank - reference| across vertices: both modes
	// must sit in the same epsilon-ball around the true fixed point.
	MaxRankErr float64 `json:"max_rank_err"`
}

// DeltaReport compares value-mode and delta-accumulative PageRank at the
// same delay bound on a skewed (power-law) and a degree-flat (uniform)
// graph. The paper's accumulative argument (and Maiter's) is that on skewed
// graphs most gathered changes are insignificant, so folding them into
// pending slots and activating selectively converges with strictly fewer
// update messages; on uniform graphs the headroom shrinks. The power-law
// saving is gated: delta spending MORE updates than value there means
// selective activation regressed.
type DeltaReport struct {
	Scale      string     `json:"scale"`
	Processors int        `json:"processors"`
	DelayBound int64      `json:"delay_bound"`
	Epsilon    float64    `json:"epsilon"`
	Rows       []DeltaRow `json:"rows"`
	// PowerLawSaving / UniformSaving are value-over-delta update-message
	// ratios (>1 means delta converged on fewer updates).
	PowerLawSaving float64 `json:"powerlaw_saving"`
	UniformSaving  float64 `json:"uniform_saving"`
	Violation      string  `json:"violation,omitempty"`
}

// RunDelta measures updates-to-convergence for value vs delta execution at
// an equal delay bound on power-law and uniform graphs.
func RunDelta(s Scale) (*DeltaReport, error) {
	const (
		bound   = int64(4)
		epsilon = 1e-4
	)
	rep := &DeltaReport{
		Scale: s.Name, Processors: s.Procs, DelayBound: bound, Epsilon: epsilon,
	}
	graphs := []struct {
		name   string
		tuples []stream.Tuple
	}{
		{"powerlaw", datasets.PowerLawGraph(s.GraphVertices, s.GraphEdgesPerVertex, 41)},
		{"uniform", datasets.UniformGraph(s.GraphVertices, s.GraphEdgesPerVertex, 41)},
	}
	for _, g := range graphs {
		ref := algorithms.RefPageRank(g.tuples, 0.85, 1e-12)
		var per [2]DeltaRow
		for i, mode := range []string{"value", "delta"} {
			row, err := runDeltaMode(g.tuples, mode, s.Procs, bound, epsilon, ref)
			if err != nil {
				return nil, fmt.Errorf("bench delta (%s/%s): %w", g.name, mode, err)
			}
			row.Graph = g.name
			per[i] = row
			rep.Rows = append(rep.Rows, row)
		}
		if per[1].UpdateMsgs > 0 {
			saving := float64(per[0].UpdateMsgs) / float64(per[1].UpdateMsgs)
			if g.name == "powerlaw" {
				rep.PowerLawSaving = saving
				if per[1].UpdateMsgs >= per[0].UpdateMsgs {
					rep.Violation = fmt.Sprintf(
						"delta mode spent %d update messages on the power-law graph, value mode %d — selective activation saved nothing",
						per[1].UpdateMsgs, per[0].UpdateMsgs)
				}
			} else {
				rep.UniformSaving = saving
			}
		}
	}
	return rep, nil
}

// runDeltaMode ingests the full edge stream into one engine and runs it to
// quiescence, then checks the fixed point against the sequential reference.
func runDeltaMode(tuples []stream.Tuple, mode string, procs int, bound int64, epsilon float64, ref map[stream.VertexID]float64) (DeltaRow, error) {
	cfg := engine.Config{
		Processors: procs,
		DelayBound: bound,
		Kind:       engine.MainLoop,
		LoopID:     storage.MainLoop,
		Store:      storage.NewMVCCStore(),
		Seed:       1,
	}
	if mode == "delta" {
		cfg.Delta = algorithms.DeltaPageRank{Epsilon: epsilon}
	} else {
		cfg.Program = algorithms.PageRank{Epsilon: epsilon}
	}
	e, err := engine.New(cfg)
	if err != nil {
		return DeltaRow{}, err
	}
	e.Start()
	defer e.Stop()
	start := time.Now()
	e.IngestAll(tuples)
	if err := e.WaitQuiesce(2 * time.Minute); err != nil {
		return DeltaRow{}, err
	}
	wall := time.Since(start)
	ranks, err := algorithms.Ranks(e)
	if err != nil {
		return DeltaRow{}, err
	}
	var maxErr float64
	for v, w := range ref {
		if g, ok := ranks[v]; ok {
			maxErr = math.Max(maxErr, math.Abs(g-w))
		}
	}
	st := e.StatsSnapshot()
	row := DeltaRow{
		Mode:       mode,
		UpdateMsgs: st.UpdateMsgs,
		Commits:    st.Commits,
		WallMs:     float64(wall.Microseconds()) / 1e3,
		MaxRankErr: maxErr,
	}
	if mode == "delta" {
		row.DeltaMerged = st.DeltaMerged
		row.DeltaParked = st.DeltaSkipped
	}
	return row, nil
}

// Failed surfaces the power-law gate so the bench driver can exit nonzero
// after the artifact is written.
func (r *DeltaReport) Failed() error {
	if r.Violation != "" {
		return fmt.Errorf("delta gate: %s", r.Violation)
	}
	return nil
}

func (r *DeltaReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Delta-accumulative PageRank vs value mode (scale %s, %d procs, B=%d, eps=%g)\n",
		r.Scale, r.Processors, r.DelayBound, r.Epsilon)
	fmt.Fprintf(&b, "%-9s %-6s %12s %10s %10s %12s %12s %12s\n",
		"graph", "mode", "updates", "commits", "wall-ms", "merged", "parked", "max-err")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-9s %-6s %12d %10d %10.1f %12d %12d %12.2e\n",
			row.Graph, row.Mode, row.UpdateMsgs, row.Commits, row.WallMs,
			row.DeltaMerged, row.DeltaParked, row.MaxRankErr)
	}
	fmt.Fprintf(&b, "update saving (value/delta): powerlaw %.2fx, uniform %.2fx\n",
		r.PowerLawSaving, r.UniformSaving)
	if r.Violation != "" {
		fmt.Fprintf(&b, "GATE VIOLATION: %s\n", r.Violation)
	}
	return b.String()
}

// WriteArtifact writes the report as JSON (the BENCH_delta.json artifact).
func (r *DeltaReport) WriteArtifact(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
