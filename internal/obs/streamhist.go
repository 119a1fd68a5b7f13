package obs

import (
	"math"
	"sort"
	"sync"
)

// StreamHist is a bounded-memory streaming histogram: observations land in a
// fixed set of buckets with precomputed upper bounds, so memory stays
// constant no matter how long the loop runs (keeping raw samples is fine for
// a bench run and wrong for a main loop that ingests for days). Quantiles are estimated by linear interpolation inside
// the covering bucket; exact min, max, count and sum are tracked alongside.
// StreamHist is safe for concurrent use.
type StreamHist struct {
	mu     sync.Mutex
	bounds []float64 // ascending upper bounds; an implicit +Inf bucket follows
	counts []uint64  // len(bounds)+1, last is the +Inf overflow bucket
	count  uint64
	sum    float64
	min    float64
	max    float64
}

// DefaultBuckets covers latencies from 1µs to ~147s in factor-2 steps
// (in seconds), a sensible default for loop timings.
func DefaultBuckets() []float64 { return ExpBuckets(1e-6, 2, 28) }

// ExpBuckets returns n exponentially growing upper bounds starting at start
// with the given growth factor (> 1).
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets requires start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// LinearBuckets returns n upper bounds start, start+width, ...
func LinearBuckets(start, width float64, n int) []float64 {
	if n < 1 {
		panic("obs: LinearBuckets requires n >= 1")
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start + float64(i)*width
	}
	return out
}

// NewStreamHist returns a histogram over the given ascending upper bounds
// (nil = DefaultBuckets). Observations above the last bound land in an
// implicit +Inf bucket.
func NewStreamHist(bounds []float64) *StreamHist {
	if bounds == nil {
		bounds = DefaultBuckets()
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: StreamHist bounds must be strictly ascending")
		}
	}
	return &StreamHist{
		bounds: bounds,
		counts: make([]uint64, len(bounds)+1),
		min:    math.Inf(1),
		max:    math.Inf(-1),
	}
}

// Observe records one sample.
func (h *StreamHist) Observe(v float64) {
	idx := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.mu.Lock()
	h.counts[idx]++
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.mu.Unlock()
}

// Count returns the number of observations.
func (h *StreamHist) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the sum of all observations.
func (h *StreamHist) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Mean returns the arithmetic mean, or 0 with no observations.
func (h *StreamHist) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Min returns the smallest observation, or 0 with none.
func (h *StreamHist) Min() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest observation, or 0 with none.
func (h *StreamHist) Max() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.max
}

// Quantile estimates the q-th quantile (0 <= q <= 1) by linear interpolation
// within the covering bucket, clamped to the observed [min, max]. Returns 0
// with no observations.
func (h *StreamHist) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := q * float64(h.count)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next >= rank {
			lo, hi := h.bucketSpan(i)
			frac := (rank - cum) / float64(c)
			v := lo + frac*(hi-lo)
			return clamp(v, h.min, h.max)
		}
		cum = next
	}
	return h.max
}

// bucketSpan returns bucket i's value range, tightened by observed min/max
// so interpolation never invents values outside the data.
func (h *StreamHist) bucketSpan(i int) (lo, hi float64) {
	if i == 0 {
		lo = h.min
	} else {
		lo = h.bounds[i-1]
	}
	if i < len(h.bounds) {
		hi = h.bounds[i]
	} else {
		hi = h.max
	}
	return lo, hi
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// HistSnapshot is a point-in-time copy of a StreamHist for exposition.
type HistSnapshot struct {
	Bounds []float64 // upper bounds; Counts has one extra +Inf entry
	Counts []uint64  // per-bucket (non-cumulative) counts
	Count  uint64
	Sum    float64
	Min    float64
	Max    float64
}

// Snapshot copies the histogram's current state.
func (h *StreamHist) Snapshot() HistSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistSnapshot{
		Bounds: h.bounds, // immutable after construction
		Counts: make([]uint64, len(h.counts)),
		Count:  h.count,
		Sum:    h.sum,
	}
	copy(s.Counts, h.counts)
	if h.count > 0 {
		s.Min, s.Max = h.min, h.max
	}
	return s
}

// Reset discards all observations.
func (h *StreamHist) Reset() {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.count, h.sum = 0, 0
	h.min, h.max = math.Inf(1), math.Inf(-1)
}
