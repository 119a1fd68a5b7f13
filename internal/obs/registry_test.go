package obs

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestScopeCounterAndPrometheusOutput(t *testing.T) {
	r := NewRegistry()
	sc := r.Scope(L("loop", "0"), L("kind", "main"))
	c := sc.Counter("tornado_commits_total", "committed updates")
	c.Add(7)

	g := sc.Gauge("tornado_frontier_iteration", "frontier position")
	g.Set(42)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP tornado_commits_total committed updates",
		"# TYPE tornado_commits_total counter",
		`tornado_commits_total{kind="main",loop="0"} 7`,
		"# TYPE tornado_frontier_iteration gauge",
		`tornado_frontier_iteration{kind="main",loop="0"} 42`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRegisterCounterWrapsExisting(t *testing.T) {
	r := NewRegistry()
	sc := r.Scope(L("loop", "1"))
	var raw atomic.Int64
	raw.Add(3)
	sc.RegisterCounter("tornado_update_msgs_total", "updates", &raw)
	raw.Add(2) // counts observed at scrape time, not registration time

	var b strings.Builder
	_ = r.WritePrometheus(&b)
	if want := `tornado_update_msgs_total{loop="1"} 5`; !strings.Contains(b.String(), want) {
		t.Fatalf("want %q in:\n%s", want, b.String())
	}
}

func TestGaugeFuncReadsAtScrape(t *testing.T) {
	r := NewRegistry()
	var v float64 = 1
	r.Scope().GaugeFunc("tornado_obligations", "tokens", func() float64 { return v })
	v = 9
	var b strings.Builder
	_ = r.WritePrometheus(&b)
	if !strings.Contains(b.String(), "tornado_obligations 9") {
		t.Fatalf("gauge func not read at scrape:\n%s", b.String())
	}
}

func TestHistogramExposition(t *testing.T) {
	r := NewRegistry()
	h := r.Scope(L("loop", "0")).Histogram("tornado_iteration_commits", "commits per iteration",
		[]float64{1, 2, 4})
	h.Observe(1)
	h.Observe(3)
	h.Observe(100)

	var b strings.Builder
	_ = r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# TYPE tornado_iteration_commits histogram",
		`tornado_iteration_commits_bucket{loop="0",le="1"} 1`,
		`tornado_iteration_commits_bucket{loop="0",le="2"} 1`,
		`tornado_iteration_commits_bucket{loop="0",le="4"} 2`,
		`tornado_iteration_commits_bucket{loop="0",le="+Inf"} 3`,
		`tornado_iteration_commits_sum{loop="0"} 104`,
		`tornado_iteration_commits_count{loop="0"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestScopeCloseUnregistersOnlyOwned(t *testing.T) {
	r := NewRegistry()
	main := r.Scope(L("loop", "0"))
	main.Counter("tornado_commits_total", "c").Add(1)

	branch := r.Scope(L("loop", "7"), L("kind", "branch"))
	branch.Counter("tornado_commits_total", "c").Add(1)
	branch.Close()

	var b strings.Builder
	_ = r.WritePrometheus(&b)
	out := b.String()
	if strings.Contains(out, `loop="7"`) {
		t.Errorf("branch series survived Close:\n%s", out)
	}
	if !strings.Contains(out, `tornado_commits_total{loop="0"} 1`) {
		t.Errorf("main series lost:\n%s", out)
	}
}

func TestScopeCloseIsReshardSafe(t *testing.T) {
	// A stopped engine's scope closing must not take down the series a
	// replacement engine registered under the same labels (Reshard order:
	// old Stop unregisters before new New registers; but guard the inverse
	// order too since Close only removes collectors it created).
	r := NewRegistry()
	old := r.Scope(L("loop", "0"))
	old.Counter("tornado_commits_total", "c")
	old.Close()
	nu := r.Scope(L("loop", "0"))
	c := nu.Counter("tornado_commits_total", "c")
	c.Add(5)
	old.Close() // double close: must not unregister the new collector

	var b strings.Builder
	_ = r.WritePrometheus(&b)
	if want := `tornado_commits_total{loop="0"} 5`; !strings.Contains(b.String(), want) {
		t.Fatalf("replacement series lost after stale Close:\n%s", b.String())
	}
}

func TestRegisterKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Scope().Counter("tornado_thing", "c")
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on counter/gauge kind collision")
		}
	}()
	r.Scope().Gauge("tornado_thing", "g")
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Scope(L("program", `alg"or\it`+"\n"+`hm`)).Counter("tornado_x_total", "c").Add(1)
	var b strings.Builder
	_ = r.WritePrometheus(&b)
	if want := `tornado_x_total{program="alg\"or\\it\nhm"} 1`; !strings.Contains(b.String(), want) {
		t.Fatalf("escaping wrong:\n%s", b.String())
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sc := r.Scope(L("loop", string(rune('0'+w))))
			c := sc.Counter("tornado_commits_total", "c")
			g := sc.Gauge("tornado_frontier_iteration", "g")
			h := sc.Histogram("tornado_iteration_commits", "h", []float64{1, 10, 100})
			for i := 0; i < 500; i++ {
				c.Add(1)
				g.Set(float64(i))
				h.Observe(float64(i))
				if i%100 == 0 {
					var b strings.Builder
					_ = r.WritePrometheus(&b) // scrape while writers run
				}
			}
			if w%2 == 1 {
				sc.Close()
			}
		}(w)
	}
	wg.Wait()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `tornado_commits_total{loop="0"} 500`) {
		t.Fatalf("surviving counter wrong:\n%s", b.String())
	}
}

func TestGaugeAdd(t *testing.T) {
	var g Gauge
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				g.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := g.Value(); got != 4000 {
		t.Fatalf("Gauge after concurrent Add = %v; want 4000", got)
	}
}
