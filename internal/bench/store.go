package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	"tornado/internal/storage"
	"tornado/internal/stream"
)

// StoreForkRow is one vertex-count cell of the snapshot-latency sweep: the
// cost of the consistent read view a fork takes, Pin + Snapshot, an O(1)
// root-pointer grab.
type StoreForkRow struct {
	Vertices   int     `json:"vertices"`
	MVCCForkUs float64 `json:"mvcc_fork_us"`
}

// StoreSoakSample is one probe of the churn soak: live version count and
// post-GC heap, taken every few waves.
type StoreSoakSample struct {
	Round        int     `json:"round"`
	LiveVersions int64   `json:"live_versions"`
	HeapAllocMB  float64 `json:"heap_alloc_mb"`
}

// StoreReport is the MVCC storage-engine benchmark: snapshot-fork latency
// across vertex counts (the O(1) claim), and a put/flush/fork churn soak
// with background compaction on (the bounded-RSS claim), with a
// compaction-off control for contrast.
//
// Gates (Failed):
//   - MVCC fork latency must be flat in vertex count (largest <= 5x the
//     smallest, above a small noise floor);
//   - after the soak, live versions must be bounded by ~3x the vertex count;
//   - post-GC heap at the end of the soak must not exceed 1.5x the midpoint
//     plus a 1 MiB grace — RSS plateaus instead of growing with churn.
type StoreReport struct {
	Scale    string         `json:"scale"`
	ForkRows []StoreForkRow `json:"fork_rows"`

	SoakVertices  int               `json:"soak_vertices"`
	SoakRounds    int               `json:"soak_rounds"`
	SoakPayload   int               `json:"soak_payload_bytes"`
	Soak          []StoreSoakSample `json:"soak"`
	SoakEndVer    int64             `json:"soak_end_versions"`
	ControlEndVer int64             `json:"control_end_versions"`
	Compactions   int64             `json:"compactions"`
	ReclaimedVer  int64             `json:"reclaimed_versions"`

	Violation string `json:"violation,omitempty"`
}

// RunStore measures snapshot-fork latency and churn-soak memory behaviour of
// the MVCC store.
func RunStore(s Scale) (*StoreReport, error) {
	rep := &StoreReport{Scale: s.Name}
	sweep := []int{1_000, 10_000, 100_000}
	reps := 50
	soakRounds := 400
	if s.Name == "small" {
		reps = 20
		soakRounds = 150
	}
	for _, n := range sweep {
		row, err := forkLatencyRow(n, reps)
		if err != nil {
			return nil, fmt.Errorf("bench store (fork sweep %d): %w", n, err)
		}
		rep.ForkRows = append(rep.ForkRows, row)
	}
	if err := runChurnSoak(rep, 1000, soakRounds, 64); err != nil {
		return nil, fmt.Errorf("bench store (churn soak): %w", err)
	}
	rep.gate()
	return rep, nil
}

// forkLatencyRow loads n vertices (one version each) and times obtaining a
// consistent read view.
func forkLatencyRow(n, reps int) (StoreForkRow, error) {
	payload := make([]byte, 32)
	mv := storage.NewMVCCStore()
	defer mv.Close()
	for v := 0; v < n; v++ {
		if err := mv.Put(storage.MainLoop, stream.VertexID(v), 1, payload); err != nil {
			return StoreForkRow{}, err
		}
	}
	start := time.Now()
	for i := 0; i < reps; i++ {
		unpin := mv.Pin(storage.MainLoop, 1)
		snap := mv.Snapshot(storage.MainLoop)
		snap.Release()
		unpin()
	}
	return StoreForkRow{Vertices: n, MVCCForkUs: float64(time.Since(start).Nanoseconds()) / float64(reps) / 1e3}, nil
}

// runChurnSoak drives put-wave / flush / fork-drop churn against an MVCC
// store that compacts to the checkpoint after every wave, as the engine's
// master does when iterations terminate, and samples live versions and
// post-GC heap; then it repeats the same churn with compaction off as a
// control.
func runChurnSoak(rep *StoreReport, vertices, rounds, payloadLen int) error {
	rep.SoakVertices = vertices
	rep.SoakRounds = rounds
	rep.SoakPayload = payloadLen

	churn := func(st storage.Store, compact bool, sample func(round int, st storage.Store)) error {
		payload := make([]byte, payloadLen)
		var unpin func()
		var snap storage.Snapshot
		for round := 1; round <= rounds; round++ {
			for v := 0; v < vertices; v++ {
				payload[0] = byte(round) // distinct bytes: every wave is a real new version
				if err := st.Put(storage.MainLoop, stream.VertexID(v), int64(round), payload); err != nil {
					return err
				}
			}
			if err := st.Flush(storage.MainLoop, int64(round)); err != nil {
				return err
			}
			if compact {
				if err := st.Compact(storage.MainLoop, int64(round)); err != nil {
					return err
				}
			}
			// Periodic fork: pin a snapshot for a few waves, then drop it —
			// the reader-churn pattern compaction has to stay live under.
			if round%10 == 3 {
				if unpin != nil {
					unpin()
					snap.Release()
				}
				unpin = st.Pin(storage.MainLoop, int64(round))
				snap = st.Snapshot(storage.MainLoop)
			}
			if sample != nil && (round%10 == 0 || round == rounds) {
				sample(round, st)
			}
		}
		if unpin != nil {
			unpin()
			snap.Release()
		}
		if compact { // the last fork is gone: reclaim what it pinned
			return st.Compact(storage.MainLoop, int64(rounds))
		}
		return nil
	}

	mv := storage.NewMVCCStore()
	defer mv.Close()
	err := churn(mv, true, func(round int, st storage.Store) {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		rep.Soak = append(rep.Soak, StoreSoakSample{
			Round:        round,
			LiveVersions: st.StoreStats().LiveVersions,
			HeapAllocMB:  float64(ms.HeapAlloc) / (1 << 20),
		})
	})
	if err != nil {
		return err
	}
	st := mv.StoreStats()
	rep.SoakEndVer = st.LiveVersions
	rep.Compactions = st.Compactions
	rep.ReclaimedVer = st.ReclaimedVersions

	control := storage.NewMVCCStore() // never compacted: versions accumulate
	defer control.Close()
	if err := churn(control, false, nil); err != nil {
		return err
	}
	rep.ControlEndVer = control.StoreStats().LiveVersions
	return nil
}

// gate fills Violation with the first broken invariant, if any.
func (r *StoreReport) gate() {
	last := r.ForkRows[len(r.ForkRows)-1]
	first := r.ForkRows[0]
	// Flatness above a 2us noise floor: O(1) means the largest store must
	// not fork materially slower than the smallest.
	floor := math.Max(first.MVCCForkUs, 2.0)
	if last.MVCCForkUs > 5*floor {
		r.Violation = fmt.Sprintf(
			"MVCC fork latency grows with vertex count: %.2fus at %d vs %.2fus at %d (want <= 5x)",
			last.MVCCForkUs, last.Vertices, first.MVCCForkUs, first.Vertices)
		return
	}
	if lim := int64(3 * r.SoakVertices); r.SoakEndVer > lim {
		r.Violation = fmt.Sprintf(
			"churn soak ended with %d live versions for %d vertices (want <= %d): compaction is not keeping up",
			r.SoakEndVer, r.SoakVertices, lim)
		return
	}
	if len(r.Soak) >= 2 {
		mid := r.Soak[len(r.Soak)/2].HeapAllocMB
		end := r.Soak[len(r.Soak)-1].HeapAllocMB
		if end > 1.5*mid+1.0 {
			r.Violation = fmt.Sprintf(
				"post-GC heap grew from %.1f MB (mid-soak) to %.1f MB (end): RSS is not bounded under churn",
				mid, end)
		}
	}
}

// Failed surfaces the gate so the bench driver exits nonzero after the
// artifact is written.
func (r *StoreReport) Failed() error {
	if r.Violation != "" {
		return fmt.Errorf("store gate: %s", r.Violation)
	}
	return nil
}

func (r *StoreReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "MVCC store: snapshot fork latency and churn-soak memory (scale %s)\n", r.Scale)
	rows := make([][]string, 0, len(r.ForkRows))
	for _, row := range r.ForkRows {
		rows = append(rows, []string{
			fmt.Sprintf("%d", row.Vertices),
			fmt.Sprintf("%.2f", row.MVCCForkUs),
		})
	}
	b.WriteString(table([]string{"vertices", "mvcc-fork-us"}, rows))
	fmt.Fprintf(&b, "churn soak: %d vertices x %d waves, %dB payloads\n",
		r.SoakVertices, r.SoakRounds, r.SoakPayload)
	for _, s := range r.Soak {
		fmt.Fprintf(&b, "  wave %4d: %7d live versions, %7.1f MB heap\n",
			s.Round, s.LiveVersions, s.HeapAllocMB)
	}
	fmt.Fprintf(&b, "end: %d live versions (compaction on), %d (control, compaction off); %d compactions reclaimed %d versions\n",
		r.SoakEndVer, r.ControlEndVer, r.Compactions, r.ReclaimedVer)
	if r.Violation != "" {
		fmt.Fprintf(&b, "GATE VIOLATION: %s\n", r.Violation)
	}
	return b.String()
}

// WriteArtifact writes the report as JSON (the BENCH_store.json artifact).
func (r *StoreReport) WriteArtifact(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
