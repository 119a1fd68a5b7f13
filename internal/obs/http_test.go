package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHubEndpoints(t *testing.T) {
	hub := NewHub(0)
	hub.Registry.Scope(L("loop", "0")).Counter("tornado_commits_total", "c").Add(11)
	hub.AddStatus("loop/0", func() any { return map[string]any{"frontier": 4} })

	srv := httptest.NewServer(hub.Handler())
	defer srv.Close()

	get := func(path string) (int, string, http.Header) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body), resp.Header
	}

	code, body, hdr := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	if !strings.HasPrefix(hdr.Get("Content-Type"), "text/plain; version=0.0.4") {
		t.Errorf("/metrics Content-Type = %q", hdr.Get("Content-Type"))
	}
	if !strings.Contains(body, `tornado_commits_total{loop="0"} 11`) {
		t.Errorf("/metrics missing counter:\n%s", body)
	}

	code, body, _ = get("/statusz")
	if code != http.StatusOK {
		t.Fatalf("/statusz status %d", code)
	}
	var snap map[string]any
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/statusz not JSON: %v\n%s", err, body)
	}
	loop, ok := snap["loop/0"].(map[string]any)
	if !ok || loop["frontier"] != float64(4) {
		t.Errorf("/statusz loop section = %v", snap["loop/0"])
	}
	if _, ok := snap["uptime"]; !ok {
		t.Error("/statusz missing uptime")
	}

	if code, _, _ = get("/debug/pprof/"); code != http.StatusOK {
		t.Errorf("/debug/pprof/ status %d", code)
	}
	if code, body, _ = get("/"); code != http.StatusOK || !strings.Contains(body, "/metrics") {
		t.Errorf("index status %d body %q", code, body)
	}
	if code, _, _ = get("/nope"); code != http.StatusNotFound {
		t.Errorf("unknown path status %d; want 404", code)
	}
}

func TestHubServeIdempotentAndClose(t *testing.T) {
	hub := NewHub(0)
	addr, err := hub.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	again, err := hub.Serve("127.0.0.1:0")
	if err != nil || again != addr {
		t.Fatalf("second Serve = %q, %v; want first address %q", again, err, addr)
	}
	if hub.Addr() != addr {
		t.Fatalf("Addr = %q; want %q", hub.Addr(), addr)
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatalf("GET live server: %v", err)
	}
	resp.Body.Close()
	if err := hub.Close(); err != nil {
		t.Fatal(err)
	}
	if hub.Addr() != "" {
		t.Fatal("Addr after Close must be empty")
	}
	if err := hub.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestStatusRemove(t *testing.T) {
	hub := NewHub(0)
	hub.AddStatus("x", func() any { return 1 })
	hub.RemoveStatus("x")
	if _, ok := hub.StatusSnapshot()["x"]; ok {
		t.Fatal("removed status section still present")
	}
}

// TestHubConcurrentScrapeAndChurn hammers the hub's HTTP surface while the
// metric and span state underneath it churns: scrapers pull /metrics, /traces
// and /statusz in tight loops while writers register and close scopes, record
// causal spans (wrapping the default ring), flip status sections, and bump live
// counters. Run under -race (make race), this pins the contract that a scrape
// never observes a torn exposition, a half-registered family, or a torn span.
func TestHubConcurrentScrapeAndChurn(t *testing.T) {
	hub := NewHub(1)
	srv := httptest.NewServer(hub.Handler())
	defer srv.Close()

	get := func(path string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Errorf("GET %s: %v", path, err)
			return
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
		if path == "/traces" {
			var out map[string]any
			if err := json.Unmarshal(body, &out); err != nil {
				t.Errorf("GET /traces: not JSON: %v", err)
			}
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Scrapers: each endpoint has a dedicated loop.
	for _, path := range []string{"/metrics", "/traces", "/statusz"} {
		wg.Add(1)
		go func(path string) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					get(path)
				}
			}
		}(path)
	}
	// Scope churn: families appear and disappear mid-scrape.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			sc := hub.Registry.Scope(L("loop", strconv.Itoa(i%4)))
			sc.Counter("tornado_churn_total", "churn probe").Add(int64(i))
			sc.Gauge("tornado_churn_depth", "churn probe").Set(float64(i))
			sc.Histogram("tornado_churn_seconds", "churn probe", ExpBuckets(0.001, 2, 8)).Observe(float64(i))
			if i%2 == 1 {
				sc.Close()
			}
		}
	}()
	// Span writers: two tracers recording past the default ring's capacity,
	// with stage fan-in to the lazy tornado_stage_seconds families.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				now := hub.Spans.Now()
				ctx := hub.Spans.Begin(now)
				for _, stage := range []string{"spout", "gate", "inbox", "process", "commit"} {
					now++
					ctx = hub.Spans.Stage(ctx, stage, 0, 7, 0, now)
				}
			}
		}()
	}
	// Status churn.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			name := "probe/" + strconv.Itoa(i%3)
			hub.AddStatus(name, func() any { return map[string]any{"i": i} })
			hub.RemoveStatus(name)
		}
	}()

	// Churn for at least 300ms and until the span ring has wrapped.
	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) || hub.Spans.Recorded() <= uint64(hub.Spans.Len()) {
		time.Sleep(10 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	// The ring must still be coherent after the churn.
	for _, sp := range hub.Spans.Snapshot() {
		if sp.Trace == 0 || sp.Stage == "" {
			t.Fatalf("torn span after churn: %+v", sp)
		}
	}
}
