// Package metrics provides the measurement primitives used by the Tornado
// benchmark harness: counters, duration histograms with percentile queries
// (the paper reports 99th-percentile latencies), and time-series recorders
// for every quantity-versus-time figure (Figures 6-8).
package metrics

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing counter safe for concurrent use.
// The zero value is ready to use.
type Counter struct {
	n atomic.Int64
}

// Add increments the counter by delta.
func (c *Counter) Add(delta int64) { c.n.Add(delta) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.n.Load() }

// Reset sets the counter back to zero and returns the previous value.
func (c *Counter) Reset() int64 { return c.n.Swap(0) }

// Histogram accumulates float64 observations and answers percentile queries.
// It stores raw samples (the experiments record at most a few hundred
// thousand observations), which keeps percentiles exact. The zero value is
// ready to use. Histogram is safe for concurrent use.
//
// For unbounded runs that must not grow with observation count, use the
// bounded-memory obs.StreamHist instead.
type Histogram struct {
	mu      sync.Mutex
	samples []float64
	// sorted caches an ascending copy of samples; Observe invalidates it,
	// so a burst of percentile queries (p0, p50, p99, p100 in one report
	// row) sorts once instead of once per call.
	sorted []float64
	sum    float64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	h.samples = append(h.samples, v)
	h.sorted = nil
	h.sum += v
	h.mu.Unlock()
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.samples)
}

// Mean returns the arithmetic mean of the samples, or 0 with no samples.
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.samples) == 0 {
		return 0
	}
	return h.sum / float64(len(h.samples))
}

// Percentile returns the p-th percentile (0 <= p <= 100) using the
// nearest-rank method, or 0 with no samples.
func (h *Histogram) Percentile(p float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := len(h.samples)
	if n == 0 {
		return 0
	}
	sorted := h.sortedLocked()
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[n-1]
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// sortedLocked returns the cached ascending view, rebuilding it after an
// invalidating Observe. Callers must hold h.mu.
func (h *Histogram) sortedLocked() []float64 {
	if h.sorted == nil {
		h.sorted = make([]float64, len(h.samples))
		copy(h.sorted, h.samples)
		sort.Float64s(h.sorted)
	}
	return h.sorted
}

// Reset discards all samples.
func (h *Histogram) Reset() {
	h.mu.Lock()
	h.samples = h.samples[:0]
	h.sorted = nil
	h.sum = 0
	h.mu.Unlock()
}

// Point is one (time, value) observation in a Series.
type Point struct {
	At    time.Duration // offset from the series' start
	Value float64
}

// Series records a quantity over time, relative to a fixed origin. It backs
// the quantity-versus-time figures. Series is safe for concurrent use.
type Series struct {
	mu     sync.Mutex
	origin time.Time
	points []Point
}

// NewSeries returns a Series whose time origin is now.
func NewSeries() *Series {
	return &Series{origin: time.Now()}
}

// Record appends an observation at the current wall time.
func (s *Series) Record(v float64) {
	s.RecordAt(time.Since(s.origin), v)
}

// RecordAt appends an observation at an explicit offset. Offsets need not be
// monotone; Points sorts before returning.
func (s *Series) RecordAt(at time.Duration, v float64) {
	s.mu.Lock()
	s.points = append(s.points, Point{At: at, Value: v})
	s.mu.Unlock()
}

// Points returns a copy of the recorded observations sorted by time.
func (s *Series) Points() []Point {
	s.mu.Lock()
	out := make([]Point, len(s.points))
	copy(out, s.points)
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// Len returns the number of recorded observations.
func (s *Series) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.points)
}

// Bucketize aggregates the series into fixed-width time buckets, returning
// one point per non-empty bucket whose value is the sum of the bucket's
// observations divided by the bucket width in seconds (i.e. a rate), which is
// how Figure 8c/8d plot "#updates per second".
//
// Contract: buckets with no observations are SKIPPED, not emitted as zeros —
// each returned Point.At is the start offset of a bucket that actually
// received data, and consecutive points may be more than one width apart. A
// plot that connects consecutive points therefore interpolates across the
// dead air (a stall reads as a line, not a drop to zero).
func (s *Series) Bucketize(width time.Duration) []Point {
	pts := s.Points()
	if len(pts) == 0 || width <= 0 {
		return nil
	}
	out := []Point{}
	cur := pts[0].At / width * width
	var sum float64
	flush := func() {
		out = append(out, Point{At: cur, Value: sum / width.Seconds()})
		sum = 0
	}
	for _, p := range pts {
		if b := p.At / width * width; b != cur {
			flush()
			cur = b
		}
		sum += p.Value
	}
	flush()
	return out
}
