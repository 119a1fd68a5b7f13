package metrics

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Fatalf("Counter = %d; want 8000", got)
	}
	if got := c.Reset(); got != 8000 {
		t.Fatalf("Reset returned %d; want 8000", got)
	}
	if got := c.Value(); got != 0 {
		t.Fatalf("after Reset Value = %d; want 0", got)
	}
}

func TestHistogramPercentiles(t *testing.T) {
	var h Histogram
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {50, 50}, {99, 99}, {100, 100}, {1, 1},
	}
	for _, c := range cases {
		if got := h.Percentile(c.p); got != c.want {
			t.Errorf("Percentile(%v) = %v; want %v", c.p, got, c.want)
		}
	}
	if got := h.Mean(); got != 50.5 {
		t.Errorf("Mean = %v; want 50.5", got)
	}
	if got := h.Count(); got != 100 {
		t.Errorf("Count = %v; want 100", got)
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Percentile(99) != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
}

func TestHistogramPercentileBounds(t *testing.T) {
	// Property: for any sample set and percentile, the result is one of the
	// samples, and percentile is monotone in p.
	f := func(raw []float64, p1, p2 float64) bool {
		if len(raw) == 0 {
			return true
		}
		var h Histogram
		present := make(map[float64]bool)
		for _, v := range raw {
			if math.IsNaN(v) {
				v = 0
			}
			h.Observe(v)
			present[v] = true
		}
		p1 = math.Abs(math.Mod(p1, 101))
		p2 = math.Abs(math.Mod(p2, 101))
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		v1, v2 := h.Percentile(p1), h.Percentile(p2)
		return present[v1] && present[v2] && v1 <= v2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSeriesSortedPoints(t *testing.T) {
	s := NewSeries()
	s.RecordAt(3*time.Second, 30)
	s.RecordAt(1*time.Second, 10)
	s.RecordAt(2*time.Second, 20)
	pts := s.Points()
	if len(pts) != 3 {
		t.Fatalf("len = %d; want 3", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].At < pts[i-1].At {
			t.Fatalf("points not sorted: %v", pts)
		}
	}
}

func TestSeriesBucketize(t *testing.T) {
	s := NewSeries()
	// 4 events in [0,1s), 2 events in [2s,3s).
	s.RecordAt(100*time.Millisecond, 1)
	s.RecordAt(200*time.Millisecond, 1)
	s.RecordAt(300*time.Millisecond, 1)
	s.RecordAt(900*time.Millisecond, 1)
	s.RecordAt(2500*time.Millisecond, 1)
	s.RecordAt(2600*time.Millisecond, 1)
	got := s.Bucketize(time.Second)
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

func TestSeriesBucketizeEmpty(t *testing.T) {
	s := NewSeries()
	if got := s.Bucketize(time.Second); got != nil {
		t.Fatalf("Bucketize on empty series = %v; want nil", got)
	}
}
