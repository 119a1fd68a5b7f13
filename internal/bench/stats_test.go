package bench

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

// TestPercentile pins the nearest-rank definition every report shares: exact
// ranks on 1..100 and the largest sample as p99 of a short run.
func TestPercentile(t *testing.T) {
	var ds []time.Duration
	for i := 100; i >= 1; i-- { // unsorted on purpose
		ds = append(ds, time.Duration(i))
	}
	for _, c := range []struct {
		p    float64
		want time.Duration
	}{{0, 1}, {1, 1}, {50, 50}, {99, 99}, {100, 100}} {
		if got := percentile(ds, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v; want %v", c.p, got, c.want)
		}
	}
	if ds[0] != 100 {
		t.Fatal("percentile reordered its input")
	}
	if got := percentile([]time.Duration{5, 10, 20, 100}, 50); got != 10 {
		t.Errorf("p50 of {5,10,20,100} = %v; want 10", got)
	}
	if got := percentile([]time.Duration{3, 1, 2}, 99); got != 3 {
		t.Errorf("p99 of 3 samples = %v; want the largest, 3", got)
	}
}

func TestPercentileEmpty(t *testing.T) {
	if got := percentile(nil, 99); got != 0 {
		t.Errorf("percentile of no samples = %v; want 0", got)
	}
}

// TestPercentileBounds: for any sample set and percentile, the result is one
// of the samples, and percentile is monotone in p.
func TestPercentileBounds(t *testing.T) {
	f := func(raw []int64, p1, p2 float64) bool {
		if len(raw) == 0 {
			return true
		}
		ds := make([]time.Duration, len(raw))
		for i, v := range raw {
			ds[i] = time.Duration(v)
		}
		p1 = math.Abs(math.Mod(p1, 101))
		p2 = math.Abs(math.Mod(p2, 101))
		if math.IsNaN(p1) || math.IsNaN(p2) {
			return true
		}
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		v1, v2 := percentile(ds, p1), percentile(ds, p2)
		return slices.Contains(ds, v1) && slices.Contains(ds, v2) && v1 <= v2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func seriesOf(pts ...RatePoint) *series { return &series{points: pts} }

func TestSeriesBucketize(t *testing.T) {
	// 4 events in [0,1s), 2 events in [2s,3s).
	s := seriesOf(
		RatePoint{100 * time.Millisecond, 1},
		RatePoint{200 * time.Millisecond, 1},
		RatePoint{300 * time.Millisecond, 1},
		RatePoint{900 * time.Millisecond, 1},
		RatePoint{2500 * time.Millisecond, 1},
		RatePoint{2600 * time.Millisecond, 1},
	)
	got := s.bucketize(time.Second)
	if len(got) != 2 {
		t.Fatalf("buckets = %v; want 2 buckets", got)
	}
	if got[0].Value != 4 || got[1].Value != 2 {
		t.Fatalf("bucket rates = %v, %v; want 4, 2", got[0].Value, got[1].Value)
	}
	if got[1].At != 2*time.Second {
		t.Fatalf("second bucket at %v; want 2s", got[1].At)
	}
}

// TestSeriesBucketizeUnordered: observations recorded out of time order come
// out as ascending buckets, and bucketize leaves the recorded points as they
// were.
func TestSeriesBucketizeUnordered(t *testing.T) {
	s := seriesOf(
		RatePoint{3 * time.Second, 30},
		RatePoint{1 * time.Second, 10},
		RatePoint{2 * time.Second, 20},
	)
	got := s.bucketize(time.Second)
	if len(got) != 3 {
		t.Fatalf("buckets = %v; want 3", got)
	}
	for i, want := range []float64{10, 20, 30} {
		if got[i].At != time.Duration(i+1)*time.Second || got[i].Value != want {
			t.Fatalf("bucket %d = %v; want {%v %v}", i, got[i], time.Duration(i+1)*time.Second, want)
		}
	}
	if s.points[0].At != 3*time.Second {
		t.Fatal("bucketize reordered the recorded points")
	}
}

func TestSeriesBucketizeEmpty(t *testing.T) {
	if got := newSeries().bucketize(time.Second); got != nil {
		t.Fatalf("bucketize on empty series = %v; want nil", got)
	}
}

func TestBucketizeSkipsEmptyBuckets(t *testing.T) {
	s := seriesOf(
		RatePoint{100 * time.Millisecond, 2},  // bucket 0
		RatePoint{3500 * time.Millisecond, 4}, // bucket 3; buckets 1 and 2 silent
	)
	pts := s.bucketize(time.Second)
	if len(pts) != 2 {
		t.Fatalf("bucketize = %d points; want 2 (empty buckets skipped): %v", len(pts), pts)
	}
	if pts[0].At != 0 || pts[1].At != 3*time.Second {
		t.Fatalf("bucket starts = %v, %v; want 0s, 3s", pts[0].At, pts[1].At)
	}
	if pts[0].Value != 2 || pts[1].Value != 4 {
		t.Fatalf("rates = %v, %v; want 2, 4", pts[0].Value, pts[1].Value)
	}
}
