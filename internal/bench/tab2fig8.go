package bench

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"time"

	"tornado/internal/algorithms"
	"tornado/internal/datasets"
	"tornado/internal/engine"
	"tornado/internal/storage"
	"tornado/internal/stream"
)

// delayBounds are the three bounds of Section 6.3: synchronous, moderate,
// effectively unbounded.
var delayBounds = []int64{1, 256, 65536}

// deepStream builds an SSSP input whose cascade is deep (a long path with a
// leaf hanging off every path vertex), so loops run for many iterations —
// required by the asynchronism and failure experiments, where the
// interesting regime is "the computation needs more iterations than the
// bound allows while coordination is down".
func deepStream(pathLen int) []stream.Tuple {
	tuples := make([]stream.Tuple, 0, 2*pathLen)
	ts := stream.Timestamp(0)
	for i := 0; i < pathLen; i++ {
		ts++
		tuples = append(tuples, stream.AddEdge(ts, stream.VertexID(i), stream.VertexID(i+1)))
		ts++
		tuples = append(tuples, stream.AddEdge(ts, stream.VertexID(i), stream.VertexID(pathLen+1+i)))
	}
	return tuples
}

// Table2Row summarizes one loop execution under a delay bound (Table 2).
type Table2Row struct {
	Bound      int64
	Time       time.Duration
	Iterations int64
	Updates    int64
	Prepares   int64
}

// Table2Report reproduces Table 2 plus the per-iteration timing series of
// Figure 8a.
type Table2Report struct {
	Rows []Table2Row
	// IterTimes maps each bound to the per-iteration termination times.
	IterTimes map[int64][]engine.IterationRecord
}

// String renders the report.
func (r Table2Report) String() string {
	var b strings.Builder
	b.WriteString("Table 2: SSSP loop summaries under delay bounds\n")
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = []string{
			fmt.Sprintf("%d", row.Bound), fmtDur(row.Time),
			fmt.Sprintf("%d", row.Iterations), fmt.Sprintf("%d", row.Updates),
			fmt.Sprintf("%d", row.Prepares),
		}
	}
	b.WriteString(table([]string{"bound", "time", "#iterations", "#updates", "#prepares"}, rows))
	b.WriteString("Figure 8a: mean running time per iteration\n")
	for _, row := range r.Rows {
		recs := r.IterTimes[row.Bound]
		if len(recs) > 0 {
			mean := recs[len(recs)-1].At.Seconds() / float64(len(recs))
			fmt.Fprintf(&b, "  bound=%d: %.4fs/iteration over %d iterations\n", row.Bound, mean, len(recs))
		}
	}
	return b.String()
}

// Row returns the row for a bound.
func (r Table2Report) Row(bound int64) (Table2Row, bool) {
	for _, row := range r.Rows {
		if row.Bound == bound {
			return row, true
		}
	}
	return Table2Row{}, false
}

// RunTable2 reproduces Table 2 and Figure 8a: a cold SSSP loop (default
// initial guess) over a power-law graph under each delay bound.
//
// The contrast requires a branchy graph: on it the synchronous loop batches
// every producer's update into one superstep and converges in ~diameter
// iterations, while the asynchronous loops commit eagerly on partial
// information and spread across many more (shorter) iterations — the
// paper's 22 vs 276 vs 2370.
func RunTable2(s Scale) (Table2Report, error) {
	tuples := edgeStream(s, 17)
	rep := Table2Report{IterTimes: make(map[int64][]engine.IterationRecord)}
	for _, bound := range delayBounds {
		e, err := newEngine(algorithms.SSSP{Source: 0}, s.Procs, bound)
		if err != nil {
			return rep, err
		}
		start := time.Now()
		e.IngestAll(tuples)
		if err := e.WaitQuiesce(5 * time.Minute); err != nil {
			e.Stop()
			return rep, err
		}
		elapsed := time.Since(start)
		st := e.StatsSnapshot()
		rep.Rows = append(rep.Rows, Table2Row{
			Bound:      bound,
			Time:       elapsed,
			Iterations: st.Notified + 1,
			Updates:    st.Commits,
			Prepares:   st.PrepareMsgs,
		})
		rep.IterTimes[bound] = e.IterationLog()
		e.Stop()
	}
	return rep, nil
}

// Fig8bRow is one bound's result in the straggler experiment.
type Fig8bRow struct {
	Bound int64
	// Time is the wall-clock time for a branch loop to run its SGD rounds
	// with one straggling processor.
	Time time.Duration
	// Objective is the per-iteration progress (average loss) series.
	Objective []engine.IterationRecord
}

// Fig8bReport reproduces Figure 8b: LR convergence under delay bounds with a
// straggler.
type Fig8bReport struct {
	Rows []Fig8bRow
}

// String renders the report.
func (r Fig8bReport) String() string {
	var b strings.Builder
	b.WriteString("Figure 8b: LR time-to-absorb with a straggling processor\n")
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = []string{fmt.Sprintf("%d", row.Bound), fmtDur(row.Time)}
	}
	b.WriteString(table([]string{"bound", "time"}, rows))
	return b.String()
}

// Time returns a bound's wall time.
func (r Fig8bReport) Time(bound int64) (time.Duration, bool) {
	for _, row := range r.Rows {
		if row.Bound == bound {
			return row.Time, true
		}
	}
	return 0, false
}

// RunFig8b reproduces Figure 8b: branch loops iterating SGD to convergence
// behind a straggling processor. The synchronous loop degrades because every
// barrier waits for the straggler's sampler; larger bounds let the parameter
// vertex fold in the punctual samplers' gradients and overlap the laggard
// (the paper: "the performance of the synchronous loop degrades
// significantly by the stragglers").
func RunFig8b(s Scale) (Fig8bReport, error) {
	const (
		dim    = 16
		rounds = 40
	)
	instances, _ := datasets.DriftingLogistic(s.Instances/2, dim, 6, 0, 81)
	// Topology: the parameter vertex on processor 0, one sampler on each of
	// processors 1..3. Straggling is modelled as the paper describes it —
	// contention: every worker occasionally stalls (heavy-tailed jitter).
	// A synchronous barrier pays the maximum stall of the round's workers;
	// the asynchronous loop folds in whatever gradients are ready and pays
	// roughly the mean.
	prog := sgdBenchProgram(algorithms.Logistic, dim, 0.1, false)
	prog.Samplers = 3
	prog.SamplerBase = 13
	prog.RoundLimit = rounds
	prog.Tol = 1e-12 // never triggers: each branch runs exactly RoundLimit rounds

	e, err := engineWithJitter(prog, 4, 256, 99)
	if err != nil {
		return Fig8bReport{}, err
	}
	defer e.Stop()
	e.IngestAll(algorithms.SGDEdges(prog, 1))
	e.IngestAll(datasets.InstanceStream(instances, prog.SamplerBase, prog.Samplers))
	if err := e.WaitQuiesce(5 * time.Minute); err != nil {
		return Fig8bReport{}, err
	}

	rep := Fig8bReport{}
	for i, bound := range delayBounds {
		b := bound
		br, lat, err := forkAndWait(e, storage.LoopID(i+1), func(cfg *engine.Config) {
			cfg.DelayBound = b
			// A branch runs on one processor by default, which would put the
			// parameter vertex and every sampler behind one CommitDelay: the
			// figure models a straggler among separate workers, so the branch
			// keeps the engine's width.
			cfg.Processors = e.Config().Processors
		}, func(br *engine.Engine) {
			for k := 0; k < prog.Samplers; k++ {
				br.Activate(prog.SamplerBase + stream.VertexID(k))
			}
		}, 5*time.Minute)
		if err != nil {
			return rep, err
		}
		rep.Rows = append(rep.Rows, Fig8bRow{Bound: bound, Time: lat, Objective: br.IterationLog()})
		br.Stop()
	}
	return rep, nil
}

// engineWithJitter builds an engine whose processors suffer heavy-tailed
// per-commit stalls: most commits are fast, but one in ten stalls hard
// (resource contention on a shared cluster).
func engineWithJitter(prog engine.Program, procs int, bound int64, seed int64) (*engine.Engine, error) {
	rngs := make([]*rand.Rand, procs)
	var mus []sync.Mutex
	mus = make([]sync.Mutex, procs)
	for i := range rngs {
		rngs[i] = rand.New(rand.NewSource(seed + int64(i)))
	}
	e, err := engine.New(engine.Config{
		Processors: procs,
		DelayBound: bound,
		Kind:       engine.MainLoop,
		LoopID:     0,
		Store:      storage.NewMVCCStore(),
		Program:    prog,
		Seed:       1,
		CommitDelay: func(p int) time.Duration {
			mus[p].Lock()
			roll := rngs[p].Float64()
			mus[p].Unlock()
			if roll < 0.10 {
				return 3 * time.Millisecond
			}
			return 100 * time.Microsecond
		},
	})
	if err != nil {
		return nil, err
	}
	e.Start()
	return e, nil
}

// FailureRow is one bound's behavior across a failure window (Figures 8c/8d).
type FailureRow struct {
	Bound int64
	// Rate is the commits-per-second series across the run.
	Rate []RatePoint
	// DuringFailure is the number of updates committed inside the failure
	// window.
	DuringFailure int64
	// CompletedDuringFailure reports whether the loop finished all its work
	// while coordination was down.
	CompletedDuringFailure bool
	// Total is the loop's final update count.
	Total int64
}

// FailureReport reproduces Figure 8c (master failure) or 8d (processor
// failure).
type FailureReport struct {
	Kind string // "master" or "processor"
	Rows []FailureRow
}

// String renders the report.
func (r FailureReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 8%s: #updates across a %s failure\n",
		map[string]string{"master": "c", "processor": "d"}[r.Kind], r.Kind)
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = []string{
			fmt.Sprintf("%d", row.Bound),
			fmt.Sprintf("%d", row.DuringFailure),
			fmt.Sprintf("%v", row.CompletedDuringFailure),
			fmt.Sprintf("%d", row.Total),
		}
	}
	b.WriteString(table([]string{"bound", "updates-during-failure", "completed-during-failure", "total-updates"}, rows))
	return b.String()
}

// Row returns the row for a bound.
func (r FailureReport) Row(bound int64) (FailureRow, bool) {
	for _, row := range r.Rows {
		if row.Bound == bound {
			return row, true
		}
	}
	return FailureRow{}, false
}

// RatePoint is one bucket of a rate series: the bucket's start offset from
// the run's start and the recorded quantity inside it, per second.
type RatePoint struct {
	At    time.Duration
	Value float64
}

// series records a quantity over time, relative to its creation, for the
// quantity-versus-time panels. One goroutine records into it.
type series struct {
	origin time.Time
	points []RatePoint
}

func newSeries() *series { return &series{origin: time.Now()} }

// record appends an observation at the current wall time.
func (s *series) record(v float64) {
	s.points = append(s.points, RatePoint{At: time.Since(s.origin), Value: v})
}

// bucketize aggregates the series into fixed-width time buckets, returning
// one point per non-empty bucket whose value is the sum of the bucket's
// observations divided by the bucket width in seconds (i.e. a rate), which is
// how Figure 8c/8d plot "#updates per second". Observations need not have
// been recorded in time order.
//
// Contract: buckets with no observations are SKIPPED, not emitted as zeros —
// each returned At is the start offset of a bucket that actually received
// data, and consecutive points may be more than one width apart. A plot that
// connects consecutive points therefore interpolates across the dead air (a
// stall reads as a line, not a drop to zero).
func (s *series) bucketize(width time.Duration) []RatePoint {
	if len(s.points) == 0 || width <= 0 {
		return nil
	}
	pts := slices.Clone(s.points)
	slices.SortStableFunc(pts, func(a, b RatePoint) int { return cmp.Compare(a.At, b.At) })
	var out []RatePoint
	cur := pts[0].At / width * width
	var sum float64
	for _, p := range pts {
		if b := p.At / width * width; b != cur {
			out = append(out, RatePoint{At: cur, Value: sum / width.Seconds()})
			cur, sum = b, 0
		}
		sum += p.Value
	}
	return append(out, RatePoint{At: cur, Value: sum / width.Seconds()})
}

// runFailure drives the deep SSSP loop under each bound, injecting a failure
// once the loop has committed `killAfter` updates and recovering after
// `downFor`. kill/recover select the failing component.
func runFailure(s Scale, kind string) (FailureReport, error) {
	pathLen := s.GraphVertices / 2
	tuples := deepStream(pathLen)
	totalWork := int64(0)
	rep := FailureReport{Kind: kind}
	for _, bound := range delayBounds {
		e, err := newEngine(algorithms.SSSP{Source: 0, MaxHops: int64(pathLen) + 2}, s.Procs, bound)
		if err != nil {
			return rep, err
		}
		killAfter := int64(pathLen / 4)
		downFor := 250 * time.Millisecond
		series := newSeries()

		e.IngestAll(tuples)
		// Wait until the loop has made some progress, then fail.
		deadline := time.Now().Add(time.Minute)
		for e.StatsSnapshot().Commits < killAfter {
			if time.Now().After(deadline) {
				e.Stop()
				return rep, fmt.Errorf("bench: loop too slow to reach %d commits", killAfter)
			}
			time.Sleep(time.Millisecond)
		}
		if kind == "master" {
			e.PauseMaster()
		} else {
			e.PauseProcessor(1)
		}
		atKill := e.StatsSnapshot().Commits
		stop := time.Now().Add(downFor)
		for time.Now().Before(stop) {
			series.record(float64(e.StatsSnapshot().Commits))
			time.Sleep(5 * time.Millisecond)
		}
		atRecover := e.StatsSnapshot().Commits
		quiesced := e.Quiesced()
		if kind == "master" {
			e.ResumeMaster()
		} else {
			e.ResumeProcessor(1)
		}
		if err := e.WaitQuiesce(5 * time.Minute); err != nil {
			e.Stop()
			return rep, err
		}
		total := e.StatsSnapshot().Commits
		if totalWork == 0 {
			totalWork = total
		}
		rep.Rows = append(rep.Rows, FailureRow{
			Bound:                  bound,
			Rate:                   series.bucketize(25 * time.Millisecond),
			DuringFailure:          atRecover - atKill,
			CompletedDuringFailure: quiesced,
			Total:                  total,
		})
		e.Stop()
	}
	return rep, nil
}

// RunFig8c reproduces Figure 8c: master failure. Expected shape: the
// synchronous loop stops almost immediately; bound 256 runs until the bound
// is exhausted; bound 65536 completes as if nothing happened.
func RunFig8c(s Scale) (FailureReport, error) { return runFailure(s, "master") }

// RunFig8d reproduces Figure 8d: single-processor failure. Expected shape:
// every loop eventually stalls (the failed partition's prepare dependencies
// propagate), and all complete correctly after recovery.
func RunFig8d(s Scale) (FailureReport, error) { return runFailure(s, "processor") }
