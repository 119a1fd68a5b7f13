package metrics

import (
	"testing"
	"time"
)

// TestHistogramPercentileCacheInvalidation exercises the sorted-view cache:
// queries between observes must reflect every sample recorded so far, not a
// stale sorted copy.
func TestHistogramPercentileCacheInvalidation(t *testing.T) {
	var h Histogram
	h.Observe(10)
	h.Observe(20)
	if got := h.Percentile(100); got != 20 {
		t.Fatalf("Percentile(100) = %v; want 20", got)
	}
	// The cache is now populated; a new extreme sample must invalidate it.
	h.Observe(5)
	if got := h.Percentile(0); got != 5 {
		t.Fatalf("Percentile(0) after cache-invalidating Observe = %v; want 5", got)
	}
	h.Observe(100)
	if got := h.Percentile(100); got != 100 {
		t.Fatalf("Percentile(100) = %v; want 100", got)
	}
	if got := h.Percentile(50); got != 10 { // nearest-rank of {5,10,20,100}
		t.Fatalf("Percentile(50) = %v; want 10", got)
	}
	h.Reset()
	h.Observe(7)
	if got := h.Percentile(100); got != 7 {
		t.Fatalf("Percentile(100) after Reset = %v; want 7", got)
	}
}

func TestBucketizeSkipsEmptyBuckets(t *testing.T) {
	s := NewSeries()
	w := time.Second
	s.RecordAt(100*time.Millisecond, 2)  // bucket 0
	s.RecordAt(3500*time.Millisecond, 4) // bucket 3; buckets 1 and 2 silent
	pts := s.Bucketize(w)
	if len(pts) != 2 {
		t.Fatalf("Bucketize = %d points; want 2 (empty buckets skipped): %v", len(pts), pts)
	}
	if pts[0].At != 0 || pts[1].At != 3*time.Second {
		t.Fatalf("bucket starts = %v, %v; want 0s, 3s", pts[0].At, pts[1].At)
	}
	if pts[0].Value != 2 || pts[1].Value != 4 {
		t.Fatalf("rates = %v, %v; want 2, 4", pts[0].Value, pts[1].Value)
	}
}
