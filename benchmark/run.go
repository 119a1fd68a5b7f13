package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tornado"
	"tornado/internal/algorithms"
	"tornado/internal/engine"
	"tornado/internal/graph"
	"tornado/internal/stream"
)

const (
	quiesceTimeout = 60 * time.Second
	stallAfter     = 10 * time.Second // no watermark progress for this long fires the watchdog
	pollEvery      = 200 * time.Microsecond
	staleTolerance = 1024 // MaxStaleDeltas of the stale-tolerant query class
)

// errWatchdog marks a run the watchdog ended: every operation of it failed.
var errWatchdog = errors.New("watchdog")

// runConfig is one (workload, seed) run.
type runConfig struct {
	w       workload
	seed    int64
	seconds float64
	traced  bool
	outDir  string // samples.json (untraced); trace.json and cpu.pprof (traced)
}

// runResult is everything one run measured, keyed by metric name. The
// untraced pass fills endToEnd, the traced pass layers.
type runResult struct {
	correct   bool
	attempted int
	failed    int
	endToEnd  map[string]float64
	layers    map[string]float64
	notes     []string // sample counts and the percentile each tail was taken at
}

// samples is what an untraced run leaves in its out directory: the raw
// timings, so a suite can pool percentiles across repeats, and the
// throughput the traced pass compares itself with.
type samples struct {
	CommitMS         []float64 `json:"commit_ms"`
	QueryMS          []float64 `json:"query_ms"`
	IngestTuplesPerS float64   `json:"ingest_tuples_per_s"`
	// All as measured, before the host factor is applied.
	Setups     []float64 `json:"setups"`      // one per set-up
	CycleRates []float64 `json:"cycle_rates"` // tuples/s, one per cycle
	HostMS     []float64 `json:"host_ms"`     // every host unit
}

// feedSource hands the feed topology whatever the harness pushes. push
// blocks until the spout has taken the previous slice, so a saturating
// producer runs closed-loop against the feed's own backpressure.
type feedSource struct {
	ch  chan []stream.Tuple
	cur []stream.Tuple
}

func (s *feedSource) Next() (stream.Tuple, error) {
	for len(s.cur) == 0 {
		b, ok := <-s.ch
		if !ok {
			return stream.Tuple{}, stream.ErrExhausted
		}
		s.cur = b
	}
	t := s.cur[0]
	s.cur = s.cur[1:]
	return t, nil
}

// harness is the state of one run in flight. Input is pushed from one
// goroutine at a time (saturation, then the paced phase's ingest goroutine,
// then the query phase), so gen and pushed need no lock.
type harness struct {
	cfg runConfig
	sys *tornado.System
	gen *churn
	tr  *tracer // nil in the untraced pass

	src  *feedSource // feed workloads only
	feed *tornado.Feed

	pushed  uint64                        // tuples handed to the system since construction (base graph included)
	tracker atomic.Pointer[commitTracker] // the paced phase in flight
	nextOp  int64

	lateMS     []float64 // how late the open-loop generator ran
	backlogEnd float64   // tuples pushed but uncommitted at the last due time

	exactMS      []float64
	staleUS      []float64
	staleness    []float64 // deltas each served result lagged behind the main loop
	staleHits    int       // stale-tolerant queries answered from the cache
	queryFails   int
	refRecompute time.Duration
}

// push hands one slice of the input stream to the system: IngestAll, or the
// feed's source.
func (h *harness) push(ts []stream.Tuple) {
	if h.src != nil {
		h.src.ch <- append([]stream.Tuple(nil), ts...)
	} else {
		h.sys.IngestAll(ts)
	}
	h.pushed += uint64(len(ts))
}

// awaitIngested waits until everything pushed has reached the main loop's
// journal (immediate without a feed).
func (h *harness) awaitIngested() error {
	deadline := time.Now().Add(quiesceTimeout)
	for h.sys.Engine().JournalSeq() < h.pushed {
		if time.Now().After(deadline) {
			return fmt.Errorf("%w: feed delivered %d of %d tuples", errWatchdog, h.sys.Engine().JournalSeq(), h.pushed)
		}
		time.Sleep(pollEvery)
	}
	return nil
}

func (h *harness) quiesce() error {
	if err := h.awaitIngested(); err != nil {
		return err
	}
	start := time.Now()
	err := h.sys.WaitQuiesce(quiesceTimeout)
	h.tr.add("bench.quiesce", 0, 0, start, time.Now())
	if err != nil {
		return fmt.Errorf("%w: %v", errWatchdog, err)
	}
	return nil
}

// setup constructs the system, ingests the base graph and waits for the
// first quiescence. That whole path is the setup_s metric.
func setup(w workload, o tornado.Options, base []stream.Tuple) (*tornado.System, float64, error) {
	start := time.Now()
	sys, err := w.newSystem(o)
	if err != nil {
		return nil, 0, err
	}
	sys.IngestAll(base)
	if err := sys.WaitQuiesce(quiesceTimeout); err != nil {
		sys.Close()
		return nil, 0, fmt.Errorf("%w: setup: %v", errWatchdog, err)
	}
	return sys, time.Since(start).Seconds(), nil
}

// plan is the measured window cut into cycles. Every cycle runs the three
// phases once — saturation (closed loop), paced ingest (open loop), queries
// (open loop) — so each metric is sampled across the whole run instead of in
// one stretch of it: on a shared host a stretch of seconds is slow or fast as
// a whole (README.md, "Steadiness").
type plan struct {
	cycles           int
	satFor           time.Duration // saturation slice of one cycle
	batches, queries int           // operations of one cycle's open-loop schedules
}

// ops is the number of operations the run will issue, the final exact query
// of the check included. It is known before the run starts, so a run the
// watchdog ends can still say how many it failed.
func (p plan) ops() int { return p.cycles*(p.batches+p.queries) + 1 }

func planOps(w workload, window float64) plan {
	length := cycleSeconds
	if w.cycle > 0 {
		length = w.cycle
	}
	cycles := max(1, int(window/length+0.5))
	per := window / float64(cycles)
	return plan{
		cycles:  cycles,
		satFor:  time.Duration(per * satShare * float64(time.Second)),
		batches: int(per * pacedShare * float64(w.pacedRate) / float64(w.batch)),
		queries: int(per * (1 - satShare - pacedShare) * w.queryRate),
	}
}

// run executes one workload once and checks its output.
func run(cfg runConfig) (*runResult, error) {
	w := cfg.w
	res := &runResult{endToEnd: map[string]float64{}, layers: map[string]float64{}}
	h := &harness{cfg: cfg, gen: newChurn(w, cfg.seed)}
	window := cfg.seconds
	if cfg.traced {
		h.tr = newTracer()
		window /= 2 // the traced pass is shorter: probes and the canary take the rest
	}
	pl := planOps(w, window)
	res.attempted = pl.ops()
	res.failed = res.attempted

	// The system the run measures is the first set-up; every cycle starts
	// with one more beside it, torn down at once, so set-up time is sampled
	// across the run like everything else.
	sys, took, err := setup(w, w.options(), h.gen.base)
	if err != nil {
		return res, err
	}
	h.sys = sys
	setups := []float64{took}
	closeSys := sync.OnceFunc(h.sys.Close)
	defer closeSys()
	h.pushed = uint64(len(h.gen.base))
	if w.feed {
		h.src = &feedSource{ch: make(chan []stream.Tuple)}
		feed, err := h.sys.AttachSource(h.src, 0)
		if err != nil {
			return res, err
		}
		h.feed = feed
		defer feed.Stop()
	}

	// The measured window opens here. One goroutine reads the commit
	// watermark every 200 µs; the traced pass adds the layer sampler and a
	// CPU profile for humans.
	stop := make(chan struct{})
	var bg sync.WaitGroup
	endWindow := sync.OnceFunc(func() { close(stop); bg.Wait(); pprof.StopCPUProfile() })
	defer endWindow()
	var lw *layerWindow
	if cfg.traced {
		prof, err := os.Create(filepath.Join(cfg.outDir, "cpu.pprof"))
		if err != nil {
			return res, err
		}
		defer prof.Close()
		if err := pprof.StartCPUProfile(prof); err != nil {
			return res, err
		}
		lw = openLayerWindow(h, stop, &bg)
	}
	bg.Add(1)
	go func() {
		defer bg.Done()
		eng := h.sys.Engine()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if t := h.tracker.Load(); t != nil {
				t.observe(committed(eng), time.Now())
			}
			time.Sleep(pollEvery)
		}
	}()

	var commitMS, rates []float64 // rates: one value per cycle
	missed := 0
	var host []float64
	for c := 0; c < pl.cycles; c++ {
		if !cfg.traced { // set-up time is an end-to-end metric; the layer counters are spared the extra work
			host = hostBurst(host)
			extra, took, err := setup(w, w.options(), h.gen.base)
			if err != nil {
				return res, err
			}
			extra.Close()
			setups = append(setups, took)
		}
		host = hostBurst(host)
		rate, err := h.saturate(pl.satFor)
		if err != nil {
			return res, err
		}
		rates = append(rates, rate)
		host = hostBurst(host)
		commits, err := h.paced(pl.batches)
		if err != nil {
			return res, err
		}
		lat, m := commits.results()
		commitMS, missed = append(commitMS, lat...), missed+m
		host = hostBurst(host)
		if err := h.queryPhase(pl.queries); err != nil {
			return res, err
		}
	}
	if lw != nil {
		lw.close(res)
		res.layers["peak_rss_mb"] = peakRSSMB() // before the probes add their own
	}
	endWindow()

	maxErr, err := h.check()
	if err != nil {
		return res, err
	}
	res.correct = true

	res.failed = missed + h.queryFails
	cs, qs := summarize(commitMS, singleRunTail), summarize(h.exactMS, singleRunTail)
	// Every end-to-end metric is a median over the samples of all cycles,
	// scaled to a host of nominal speed by the host units taken between them.
	tput, factor := median(rates), hostFactor(host)
	res.endToEnd["setup_s"] = median(setups) / factor
	res.endToEnd["ingest_tuples_per_s"] = tput * factor
	res.endToEnd["ingest_commit_p50_ms"] = cs.p50 / factor
	res.endToEnd["query_exact_p50_ms"] = qs.p50 / factor
	res.notes = append(res.notes,
		fmt.Sprintf("host: %.4f ms per unit over n=%d units, factor %.4f of the nominal %.1f ms", median(host), len(host), factor, hostNominalMS),
		fmt.Sprintf("as measured: setup_s %.4f, ingest_tuples_per_s %.4f, ingest_commit_p50_ms %.4f, query_exact_p50_ms %.4f", median(setups), tput, cs.p50, qs.p50),
		fmt.Sprintf("ingest_tuples_per_s: median of n=%d cycles", len(rates)),
		fmt.Sprintf("ingest_commit: n=%d batches, as measured p%g %.4f ms", cs.n, cs.tailAt, cs.tail),
		fmt.Sprintf("query_exact: n=%d queries, as measured p%g %.4f ms", qs.n, qs.tailAt, qs.tail),
		fmt.Sprintf("setup_s: median of n=%d set-ups", len(setups)))

	samplesPath := filepath.Join(cfg.outDir, "samples.json")
	if !cfg.traced {
		data, err := json.Marshal(samples{CommitMS: commitMS, QueryMS: h.exactMS, IngestTuplesPerS: tput, Setups: setups,
			CycleRates: rates, HostMS: host})
		if err != nil {
			return res, err
		}
		return res, os.WriteFile(samplesPath, data, 0o644)
	}

	res.layers["harness.host_probe_ms"] = median(host)
	h.ownLayerMetrics(res.layers, cs, qs, tput, maxErr, samplesPath)
	if err := runProbes(h, res); err != nil {
		return res, err
	}
	closeSys()
	res.layers["flow.default_ladder_stalled"] = -1 // not run on this workload
	if w.canary {
		res.layers["flow.default_ladder_stalled"] = stallCanary(w, h.gen.base, cfg.seed)
	}
	return res, h.tr.write(filepath.Join(cfg.outDir, "trace.json"))
}

// ownLayerMetrics writes the traced pass's numbers that come from the
// harness's own samples and spans rather than from the system's counters.
func (h *harness) ownLayerMetrics(m map[string]float64, cs, qs summary, tput, maxErr float64, samplesPath string) {
	// The tails and the memory high-water mark are end-to-end numbers kept
	// out of the gated set: over ten seeds they spread wider than any bound
	// may be (README.md, "Steadiness").
	m["ingest_commit_p99_ms"] = cs.tail
	m["query_exact_p99_ms"] = qs.tail
	m["delta.rank_max_rel_err"] = maxErr
	m["harness.gen_late_p99_ms"] = summarize(h.lateMS, 99).tail
	m["harness.backlog_end_tuples"] = h.backlogEnd
	m["harness.ref_recompute_ms"] = float64(h.refRecompute) / float64(time.Millisecond)
	// Traced against untraced throughput, when an untraced run of this
	// workload left its numbers in the same directory; 0 otherwise.
	m["harness.trace_overhead_frac"] = 0
	if data, err := os.ReadFile(samplesPath); err == nil {
		var untraced samples
		if json.Unmarshal(data, &untraced) == nil && untraced.IngestTuplesPerS > 0 {
			m["harness.trace_overhead_frac"] = 1 - tput/untraced.IngestTuplesPerS
		}
	}
	m["queryserv.stale_p50_us"] = median(h.staleUS)
	m["queryserv.cache_hit_ratio"] = ratio(float64(h.staleHits), float64(len(h.staleUS)))
	m["queryserv.freshness_p50_deltas"] = median(h.staleness)
	self := h.tr.selfTimes()
	m["queryserv.submit_us"] = median(self["submit"]) * 1e6
	m["queryserv.wait_ms"] = median(self["wait"]) * 1e3
	m["queryserv.read_us"] = median(self["read"]) * 1e6
	m["queryserv.close_us"] = median(self["close"]) * 1e6
}

// saturate is the closed-loop phase: one producer pushes the churn stream, a
// tenth of the graph per call, as fast as the admission gate (or the feed)
// lets it for d, then the loop is drained. Throughput is tuples admitted over
// the time until it is.
func (h *harness) saturate(d time.Duration) (float64, error) {
	start := time.Now()
	deadline := start.Add(d)
	var wave []stream.Tuple
	admitted := 0
	for time.Now().Before(deadline) {
		wave = h.gen.next(wave, h.gen.wave())
		t0 := time.Now()
		h.push(wave)
		h.tr.add("bench.ingest_call", 0, 0, t0, time.Now())
		admitted += len(wave)
	}
	if err := h.quiesce(); err != nil {
		return 0, err
	}
	return float64(admitted) / time.Since(start).Seconds(), nil
}

// sleepUntil returns how late the caller woke.
func sleepUntil(due time.Time) time.Duration {
	if d := time.Until(due); d > 0 {
		time.Sleep(d)
	}
	return time.Since(due)
}

// paced is the open-loop ingest phase: nBatches batches at the
// workload's fixed rate, each timed from the instant the schedule wanted it
// sent to the instant the commit watermark passes it.
func (h *harness) paced(nBatches int) (*commitTracker, error) {
	w := h.cfg.w
	tracker := newCommitTracker(w.commitLimit, h.tr)
	h.tracker.Store(tracker)
	t0 := time.Now().Add(10 * time.Millisecond)
	every := time.Duration(float64(time.Second) * float64(w.batch) / float64(w.pacedRate))

	done := make(chan struct{})
	go func() { // the single ingest goroutine
		defer close(done)
		var buf []stream.Tuple
		for k := 0; k < nBatches; k++ {
			due := t0.Add(time.Duration(k) * every)
			late := sleepUntil(due)
			h.lateMS = append(h.lateMS, float64(late)/float64(time.Millisecond))
			buf = h.gen.next(buf, w.batch)
			h.nextOp++
			tracker.add(h.nextOp, h.pushed+uint64(w.batch), due)
			start := time.Now()
			h.push(buf)
			end := time.Now()
			tracker.ingested(h.nextOp, end)
			h.tr.add("bench.ingest_call", 0, h.nextOp, start, end)
			if k == nBatches-1 {
				h.backlogEnd = float64(h.pushed) - float64(committed(h.sys.Engine()))
			}
		}
	}()
	for issued := false; !issued || tracker.outstanding() > 0; {
		select {
		case <-done:
			issued = true
		default:
		}
		if s := tracker.stalledFor(time.Now()); s > stallAfter {
			return nil, fmt.Errorf("%w: commit watermark made no progress for %v", errWatchdog, s.Round(time.Second))
		}
		time.Sleep(time.Millisecond)
	}
	return tracker, h.quiesce()
}

// queryPhase is the open-loop query phase. Each operation, on a fixed
// schedule, ingests a burst of the churn stream and at once asks for the
// answer that reflects it, so every exact query forks a main loop holding
// the same amount of uncommitted input. (Queries beside an independent
// trickle fork whatever happens to be in flight — from nothing to a full
// window — and their latency spreads over two orders of magnitude.) One
// client: a query that overruns its slot delays the next, and that wait is
// counted, because latency is taken from the due time.
func (h *harness) queryPhase(nQueries int) error {
	w := h.cfg.w
	t0 := time.Now().Add(10 * time.Millisecond)
	every := time.Duration(float64(time.Second) / w.queryRate)
	var buf []stream.Tuple
	for k := 0; k < nQueries; k++ {
		due := t0.Add(time.Duration(k) * every)
		sleepUntil(due)
		buf = h.gen.next(buf, w.batch)
		h.push(buf)
		if err := h.awaitIngested(); err != nil {
			return err
		}
		h.query(due, w.staleEvery > 0 && k%w.staleEvery == 1)
	}
	return h.quiesce()
}

// query runs one query: submit, wait for convergence, read one vertex,
// close. A query that errors, is shed, expires or misses the workload's
// limit counts as failed.
func (h *harness) query(due time.Time, stale bool) {
	w := h.cfg.w
	spec := tornado.QuerySpec{Timeout: w.queryLimit}
	if stale {
		spec.MaxStaleDeltas = staleTolerance
	}
	h.nextOp++
	op := h.nextOp
	t0 := time.Now()
	ticket, err := h.sys.Submit(context.Background(), spec)
	if err == nil {
		t1 := time.Now()
		r, werr := ticket.Wait(context.Background())
		if err = werr; err == nil {
			t2 := time.Now()
			_, _, err = r.Read(0)
			t3 := time.Now()
			r.Close()
			t4 := time.Now()
			parent := h.tr.add("bench.query", 0, op, t0, t4)
			h.tr.add("submit", parent, op, t0, t1)
			h.tr.add("wait", parent, op, t1, t2)
			h.tr.add("read", parent, op, t2, t3)
			h.tr.add("close", parent, op, t3, t4)
			h.staleness = append(h.staleness, float64(r.Staleness))
			if stale && r.CacheHit {
				h.staleHits++
			}
		}
	}
	lat := time.Since(due)
	switch {
	case err != nil:
		fmt.Fprintf(os.Stderr, "benchmark: query failed: %v\n", err)
		h.queryFails++
	case lat > w.queryLimit:
		h.queryFails++
	case stale:
		h.staleUS = append(h.staleUS, float64(lat)/float64(time.Microsecond))
	default:
		h.exactMS = append(h.exactMS, float64(lat)/float64(time.Millisecond))
	}
}

// check verifies the run's output against the sequential reference over
// every tuple the run ingested, applied in order. The main loop's
// approximation after the last quiescence decides whether the run was
// correct. A final exact query is then checked the same way, as one more
// operation: a wrong or stale answer fails that operation, not the run (see
// README.md, "Defects found while sizing": the branch of a query issued
// right after quiescence is occasionally wrong while the main loop is
// right). It returns the query's worst relative rank error (delta workload;
// 0 otherwise).
func (h *harness) check() (float64, error) {
	if h.src != nil {
		close(h.src.ch)
		if err := h.feed.Wait(quiesceTimeout); err != nil {
			return 0, fmt.Errorf("%w: %v", errWatchdog, err)
		}
	}
	if err := h.quiesce(); err != nil {
		return 0, err
	}
	refStart := time.Now()
	g := graph.New()
	replay := newChurn(h.cfg.w, h.cfg.seed)
	g.ApplyAll(replay.base)
	var buf []stream.Tuple
	for left := int(h.pushed) - len(replay.base); left > 0; left -= len(buf) {
		buf = replay.next(buf, min(left, 1<<16))
		g.ApplyAll(buf)
	}
	var compare func(*engine.Engine) (float64, error)
	if h.cfg.w.delta {
		want := algorithms.RefPageRankGraph(g, 0.85, 1e-12)
		compare = func(e *engine.Engine) (float64, error) {
			got, err := algorithms.Ranks(e)
			if err != nil {
				return 0, err
			}
			worst := 0.0
			for v, r := range want {
				worst = math.Max(worst, math.Abs(got[v]-r)/r)
			}
			if len(got) != len(want) || worst > 1e-2 {
				return worst, fmt.Errorf("%d ranks against %d, worst relative error %.3g > 1e-2", len(got), len(want), worst)
			}
			return worst, nil
		}
	} else {
		want := algorithms.RefSSSPGraph(g, 0, 0)
		compare = func(e *engine.Engine) (float64, error) {
			got, err := algorithms.Distances(e)
			if err != nil {
				return 0, err
			}
			if len(got) != len(want) {
				return 0, fmt.Errorf("%d distances against %d", len(got), len(want))
			}
			for v, d := range want {
				if got[v] != d {
					return 0, fmt.Errorf("vertex %d at distance %d, reference says %d", v, got[v], d)
				}
			}
			return 0, nil
		}
	}
	h.refRecompute = time.Since(refStart)
	if _, err := compare(h.sys.Engine()); err != nil {
		return 0, fmt.Errorf("correctness: main loop: %w", err)
	}

	// A degraded query service answers "exact" queries from its cache; the
	// ladder steps down within a few sampling periods of the load ending.
	for deadline := time.Now().Add(stallAfter); h.sys.FlowStats().QueryDegradeLevel > 0; {
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("%w: query service still degraded %v after the load ended", errWatchdog, stallAfter)
		}
		time.Sleep(time.Millisecond)
	}
	res, err := h.sys.Query(quiesceTimeout)
	if err == nil {
		defer res.Close()
		if res.ForkSeq() != h.pushed {
			err = fmt.Errorf("reflects %d of %d inputs", res.ForkSeq(), h.pushed)
		}
	}
	var worst float64
	if err == nil {
		worst, err = compare(res.Engine())
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: final exact query failed: %v\n", err)
		h.queryFails++
	}
	return worst, nil
}

// stallCanary runs 5 s of back-to-back IngestAll waves on the UNMODIFIED
// tornado.Options{} and reports 1 if the loop then fails to quiesce within
// the watchdog (the ladder stall that forced configDeviation), 0 if it
// drains. Never gating: it exists so the fix shows and the deviation can be
// lifted.
func stallCanary(w workload, base []stream.Tuple, seed int64) float64 {
	sys, _, err := setup(w, tornado.Options{}, base)
	if err != nil {
		return 1
	}
	gen := newChurn(w, seed)
	drained := make(chan error, 1)
	go func() {
		var wave []stream.Tuple
		for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
			wave = gen.next(wave, gen.wave())
			sys.IngestAll(wave)
		}
		drained <- sys.WaitQuiesce(stallAfter)
	}()
	select {
	case err = <-drained:
	case <-time.After(5*time.Second + 2*stallAfter): // the producer itself is parked at the gate
		err = errWatchdog
	}
	// A stalled loop may not stop cleanly; the process exits soon either way.
	go sys.Close()
	if err != nil {
		return 1
	}
	return 0
}

// peakRSSMB reads this process's high-water resident set from the kernel.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}
