package flow

import (
	"sync"
	"sync/atomic"
	"time"

	"tornado/internal/obs/trace"
)

// Controller hysteresis constants.
const (
	// escalateAbove is the pressure (0..1 utilization of the tightest
	// bounded queue) at or above which consecutive samples escalate one
	// ladder level.
	escalateAbove = 0.85
	// relaxBelow is the pressure at or below which consecutive samples relax
	// one level. The dead band between the two keeps the ladder from
	// oscillating around a single threshold.
	relaxBelow = 0.5
	// escalateAfter / relaxAfter are the consecutive-sample counts required
	// before moving: degrade quickly, recover cautiously.
	escalateAfter = 3
	relaxAfter    = 8
	// maxLevel caps the ladder.
	maxLevel = 3
)

// ControllerOptions tunes the overload controller's sampling cadence and
// tracing. The zero value samples every 25ms.
type ControllerOptions struct {
	// SampleEvery is the sampling period of the background loop (default
	// 25ms). Ignored by Step, which tests drive directly.
	SampleEvery time.Duration
	// Spans, when non-nil, is told about every ladder transition: rungs
	// L1–L3 force-retain causal traces (tail sampling), and the current rung
	// stamps every span recorded while degraded.
	Spans *trace.Tracer
}

// Controller walks a degradation ladder driven by a pressure signal. It
// samples a caller-supplied gauge (utilization of the most-loaded bounded
// queue, 0..1) and calls apply with the new level whenever hysteresis says
// the system moved: level 0 is normal operation, higher levels are
// progressively cheaper service (what each level means is the caller's
// ladder — the controller only decides when to climb or descend).
type Controller struct {
	opts   ControllerOptions
	sample func() float64
	apply  func(level int)

	mu           sync.Mutex
	level        int
	hot          int // consecutive samples above escalateAbove
	cool         int // consecutive samples below relaxBelow
	sinceUp      time.Time
	movedPending bool

	transitions   atomic.Int64
	degradedNanos atomic.Int64
	lastPressure  atomic.Int64 // ×1e6 fixed point

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// NewController starts a controller sampling in the background. sample
// returns current pressure; apply is invoked (from the sampling goroutine,
// or from Step's caller) with each new level. Stop it with Stop.
func NewController(opts ControllerOptions, sample func() float64, apply func(level int)) *Controller {
	if opts.SampleEvery <= 0 {
		opts.SampleEvery = 25 * time.Millisecond
	}
	c := &Controller{opts: opts, sample: sample, apply: apply, stop: make(chan struct{})}
	c.wg.Add(1)
	go c.run()
	return c
}

func (c *Controller) run() {
	defer c.wg.Done()
	tick := time.NewTicker(c.opts.SampleEvery)
	defer tick.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-tick.C:
			c.Step()
		}
	}
}

// Step takes one sample and moves the ladder if hysteresis allows. The
// background loop calls it every SampleEvery; tests call it directly for
// deterministic ladder walks.
func (c *Controller) Step() {
	p := c.sample()
	c.lastPressure.Store(int64(p * 1e6))
	c.mu.Lock()
	switch {
	case p >= escalateAbove:
		c.hot++
		c.cool = 0
		if c.hot >= escalateAfter && c.level < maxLevel {
			c.moveLocked(c.level + 1)
			c.hot = 0
		}
	case p <= relaxBelow:
		c.cool++
		c.hot = 0
		if c.cool >= relaxAfter && c.level > 0 {
			c.moveLocked(c.level - 1)
			c.cool = 0
		}
	default:
		c.hot, c.cool = 0, 0
	}
	level := c.level
	moved := c.movedPending
	c.movedPending = false
	c.mu.Unlock()
	if moved {
		if c.apply != nil {
			c.apply(level)
		}
		c.opts.Spans.SetRung(int32(level), c.opts.Spans.Now())
	}
}

// movedPending defers the apply callback until after mu is released so a
// ladder action may itself read controller state without deadlocking.
func (c *Controller) moveLocked(to int) {
	if to > 0 && c.level == 0 {
		c.sinceUp = time.Now()
	}
	if to == 0 && c.level > 0 && !c.sinceUp.IsZero() {
		c.degradedNanos.Add(time.Since(c.sinceUp).Nanoseconds())
		c.sinceUp = time.Time{}
	}
	c.level = to
	c.transitions.Add(1)
	c.movedPending = true
}

// Level returns the current ladder level (0 = normal).
func (c *Controller) Level() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.level
}

// Transitions returns how many times the ladder moved (either direction).
func (c *Controller) Transitions() int64 { return c.transitions.Load() }

// Degraded returns cumulative wall-clock time spent above level 0.
func (c *Controller) Degraded() time.Duration {
	c.mu.Lock()
	d := time.Duration(c.degradedNanos.Load())
	if c.level > 0 && !c.sinceUp.IsZero() {
		d += time.Since(c.sinceUp)
	}
	c.mu.Unlock()
	return d
}

// Pressure returns the most recent sample.
func (c *Controller) Pressure() float64 { return float64(c.lastPressure.Load()) / 1e6 }

// Stop halts the sampling loop (idempotent). It does not reset the ladder;
// callers that want a clean exit apply level 0 themselves.
func (c *Controller) Stop() {
	c.stopOnce.Do(func() { close(c.stop) })
	c.wg.Wait()
}
