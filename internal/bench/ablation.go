package bench

import (
	"fmt"
	"os"
	"strings"
	"time"

	"tornado/internal/algorithms"
	"tornado/internal/engine"
	"tornado/internal/storage"
)

// AblationReport quantifies the design choices DESIGN.md calls out, each
// measured with the optimization on and off:
//
//   - prepare-skip at the delay cap (Section 4.4): message savings of
//     committing without the prepare phase when no consumer can be ahead;
//   - the fork fast path: seedless branches from settled main loops;
//   - store backend: the per-commit materialization cost of a durable
//     (fsync-on-checkpoint) store versus the in-memory one — the same index,
//     so the difference is the log alone — which is the I/O pressure behind
//     the paper's per-iteration times (Figure 8a).
type AblationReport struct {
	Rows []AblationRow
}

// AblationRow is one configuration's measurement.
type AblationRow struct {
	Name     string
	Variant  string
	Time     time.Duration
	Prepares int64
	Updates  int64
}

// String renders the report.
func (r AblationReport) String() string {
	var b strings.Builder
	b.WriteString("Ablations: design-choice contributions\n")
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = []string{row.Name, row.Variant, fmtDur(row.Time),
			fmt.Sprintf("%d", row.Prepares), fmt.Sprintf("%d", row.Updates)}
	}
	b.WriteString(table([]string{"ablation", "variant", "time", "#prepares", "#updates"}, rows))
	return b.String()
}

// Find returns a named row.
func (r AblationReport) Find(name, variant string) (AblationRow, bool) {
	for _, row := range r.Rows {
		if row.Name == name && row.Variant == variant {
			return row, true
		}
	}
	return AblationRow{}, false
}

// RunAblations measures each design choice at the given scale.
func RunAblations(s Scale) (AblationReport, error) {
	rep := AblationReport{}
	tuples := edgeStream(s, 21)

	// 1. Prepare-skip at the cap: a synchronous loop (B = 1, where every
	// commit is at the cap) with and without the optimization.
	for _, disable := range []bool{false, true} {
		e, err := engine.New(engine.Config{
			Processors: s.Procs, DelayBound: 1, Kind: engine.MainLoop,
			LoopID: storage.MainLoop, Store: storage.NewMVCCStore(),
			Program: algorithms.SSSP{Source: 0}, Seed: 1,
			DisablePrepareSkip: disable,
		})
		if err != nil {
			return rep, err
		}
		e.Start()
		start := time.Now()
		e.IngestAll(tuples)
		if err := e.WaitQuiesce(5 * time.Minute); err != nil {
			e.Stop()
			return rep, err
		}
		st := e.StatsSnapshot()
		rep.Rows = append(rep.Rows, AblationRow{
			Name: "prepare-skip", Variant: variantName(disable),
			Time: time.Since(start), Prepares: st.PrepareMsgs, Updates: st.Commits,
		})
		e.Stop()
	}

	// 2. Journal pruning: the fork journal retains only inputs newer than
	// the terminated frontier; without pruning it grows with the stream.
	// The Updates column reports retained journal entries here.
	for _, disable := range []bool{false, true} {
		e, err := engine.New(engine.Config{
			Processors: s.Procs, DelayBound: 256, Kind: engine.MainLoop,
			LoopID: storage.MainLoop, Store: storage.NewMVCCStore(),
			Program: algorithms.SSSP{Source: 0}, Seed: 1,
			DisableJournalPrune: disable,
		})
		if err != nil {
			return rep, err
		}
		e.Start()
		start := time.Now()
		e.IngestAll(tuples)
		if err := e.WaitQuiesce(5 * time.Minute); err != nil {
			e.Stop()
			return rep, err
		}
		pending, retained := e.JournalSize()
		rep.Rows = append(rep.Rows, AblationRow{
			Name: "journal-prune", Variant: variantName(disable),
			Time: time.Since(start), Updates: int64(pending + retained),
		})
		e.Stop()
	}

	// 3. Store backend: in-memory versus durable append-log.
	for _, backend := range []string{"mem", "disk"} {
		var store storage.Store
		var cleanup func()
		if backend == "mem" {
			store = storage.NewMVCCStore()
			cleanup = func() {}
		} else {
			dir, err := tempLogDir()
			if err != nil {
				return rep, err
			}
			disk, err := storage.OpenDisk(dir + "/ablation.log")
			if err != nil {
				os.RemoveAll(dir)
				return rep, err
			}
			store = disk
			cleanup = func() {
				disk.Close()
				os.RemoveAll(dir)
			}
		}
		e, err := engine.New(engine.Config{
			Processors: s.Procs, DelayBound: 256, Kind: engine.MainLoop,
			LoopID: storage.MainLoop, Store: store,
			Program: algorithms.SSSP{Source: 0}, Seed: 1,
		})
		if err != nil {
			cleanup()
			return rep, err
		}
		e.Start()
		start := time.Now()
		e.IngestAll(tuples)
		if err := e.WaitQuiesce(5 * time.Minute); err != nil {
			e.Stop()
			cleanup()
			return rep, err
		}
		st := e.StatsSnapshot()
		rep.Rows = append(rep.Rows, AblationRow{
			Name: "store-backend", Variant: backend,
			Time: time.Since(start), Prepares: st.PrepareMsgs, Updates: st.Commits,
		})
		e.Stop()
		cleanup()
	}
	return rep, nil
}

func variantName(disabled bool) string {
	if disabled {
		return "off"
	}
	return "on"
}

// tempLogDir creates a throwaway directory for disk-store ablations.
func tempLogDir() (string, error) {
	return os.MkdirTemp("", "tornado-ablation-*")
}
