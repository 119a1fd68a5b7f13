package obs

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"tornado/internal/obs/trace"
)

// Hub is one process's observability root: a Registry every loop registers
// its collectors into, the span Tracer (end-to-end freshness traces plus the
// protocol markers of watched vertices), and the HTTP exposition surface
// (/metrics in Prometheus text format, /statusz as JSON, /traces as
// filterable JSON span dumps, and /debug/pprof). Components contribute
// per-loop snapshots to /statusz via AddStatus.
type Hub struct {
	Registry *Registry
	Spans    *trace.Tracer
	start    time.Time
	build    map[string]string

	stageMu    sync.RWMutex
	stageHists map[string]*StreamHist
	stageScope *Scope

	statusMu sync.Mutex
	status   map[string]func() any

	extraMu sync.Mutex
	extra   map[string]http.Handler

	srvMu sync.Mutex
	srv   *http.Server
	lis   net.Listener
}

// NewHub returns a hub with an empty registry and a span tracer that traces
// an input delta end to end with probability spanRate (0 disables head
// sampling; tail escalation can still force tracing while a degradation rung
// is active, and watched vertices record their markers regardless).
func NewHub(spanRate float64) *Hub {
	h := &Hub{
		Registry: NewRegistry(),
		Spans:    trace.NewTracer(0, spanRate),
		start:    time.Now(),
		build:    buildInfo(),
		status:   make(map[string]func() any),
	}
	h.stageHists = make(map[string]*StreamHist)
	h.stageScope = h.Registry.Scope()
	h.stageScope.GaugeFunc("tornado_trace_spans_recorded",
		"Causal spans ever recorded (including overwritten).",
		func() float64 { return float64(h.Spans.Recorded()) })
	h.stageScope.GaugeFunc("tornado_trace_escalations",
		"Tail-sampling escalation triggers (resend, shed, rung, recovery).",
		func() float64 { return float64(h.Spans.Escalations()) })
	h.stageScope.GaugeFunc("tornado_trace_sample_rate",
		"Head-based span sampling probability.",
		func() float64 { return h.Spans.Rate() })
	// Every recorded stage span feeds the per-stage latency breakdown
	// (markers carry zero width and are skipped).
	h.Spans.OnSpan(func(sp trace.Span) {
		if sp.Dur <= 0 {
			return
		}
		h.ObserveStage(sp.Stage, sp.Dur)
	})
	return h
}

// ObserveStage records one latency sample into the per-stage breakdown
// histogram tornado_stage_seconds{stage=...}. Stage families are created
// lazily on first observation.
func (h *Hub) ObserveStage(stage string, d time.Duration) {
	h.stageMu.RLock()
	hist := h.stageHists[stage]
	h.stageMu.RUnlock()
	if hist == nil {
		h.stageMu.Lock()
		hist = h.stageHists[stage]
		if hist == nil {
			hist = h.stageScope.Histogram("tornado_stage_seconds",
				"Per-stage latency breakdown of traced input deltas and queries.",
				nil, L("stage", stage))
			h.stageHists[stage] = hist
		}
		h.stageMu.Unlock()
	}
	hist.Observe(d.Seconds())
}

// buildInfo collects the process's go version and VCS stamp once.
func buildInfo() map[string]string {
	out := map[string]string{"go": runtime.Version()}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return out
	}
	if bi.Main.Version != "" {
		out["module_version"] = bi.Main.Version
	}
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			out["vcs_revision"] = s.Value
		case "vcs.time":
			out["vcs_time"] = s.Value
		case "vcs.modified":
			out["vcs_dirty"] = s.Value
		}
	}
	return out
}

// Uptime is the time since the hub was created.
func (h *Hub) Uptime() time.Duration { return time.Since(h.start) }

// AddStatus registers a named /statusz section; fn is called at request time
// and must be safe to call from any goroutine. Re-registering a name
// replaces the previous section.
func (h *Hub) AddStatus(name string, fn func() any) {
	h.statusMu.Lock()
	h.status[name] = fn
	h.statusMu.Unlock()
}

// RemoveStatus drops a /statusz section (loops unregister when they stop).
func (h *Hub) RemoveStatus(name string) {
	h.statusMu.Lock()
	delete(h.status, name)
	h.statusMu.Unlock()
}

// StatusSnapshot evaluates every registered status section.
func (h *Hub) StatusSnapshot() map[string]any {
	h.statusMu.Lock()
	names := make([]string, 0, len(h.status))
	fns := make([]func() any, 0, len(h.status))
	for name, fn := range h.status {
		names = append(names, name)
		fns = append(fns, fn)
	}
	h.statusMu.Unlock()
	out := make(map[string]any, len(names)+4)
	for i, name := range names {
		out[name] = fns[i]()
	}
	out["uptime"] = h.Uptime().String()
	out["trace_spans"] = map[string]any{
		"recorded":    h.Spans.Recorded(),
		"retained":    h.Spans.Len(),
		"escalations": h.Spans.Escalations(),
		"sample_rate": h.Spans.Rate(),
	}
	out["build"] = h.build
	out["degrade_rung"] = h.Spans.Rung()
	return out
}

// Handle registers an extra route on the exposition surface (e.g. the query
// service's /query API). Patterns use http.ServeMux syntax. Register before
// Serve: routes added later are picked up only by subsequent Handler calls.
func (h *Hub) Handle(pattern string, handler http.Handler) {
	h.extraMu.Lock()
	if h.extra == nil {
		h.extra = make(map[string]http.Handler)
	}
	h.extra[pattern] = handler
	h.extraMu.Unlock()
}

// Handler returns the exposition mux: /metrics, /statusz, /debug/pprof/...
// plus every route registered with Handle.
func (h *Hub) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", h.serveMetrics)
	mux.HandleFunc("/statusz", h.serveStatusz)
	mux.HandleFunc("/traces", h.serveTraces)
	h.extraMu.Lock()
	for pattern, handler := range h.extra {
		mux.Handle(pattern, handler)
	}
	h.extraMu.Unlock()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte("tornado observability\n  /metrics\n  /statusz\n  /traces\n  /debug/pprof/\n"))
	})
	return mux
}

func (h *Hub) serveMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = h.Registry.WritePrometheus(w)
}

// serveTraces dumps reconstructed causal traces as JSON. Query parameters:
// trace (ID), min_ms (minimum wall duration), rung (minimum degradation
// rung), forced (tail-escalated only), stage (must contain stage), limit.
func (h *Hub) serveTraces(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var f trace.Filter
	if v := q.Get("trace"); v != "" {
		id, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			http.Error(w, "bad trace id", http.StatusBadRequest)
			return
		}
		f.Trace = id
	}
	if v := q.Get("min_ms"); v != "" {
		ms, err := strconv.ParseFloat(v, 64)
		if err != nil || ms < 0 {
			http.Error(w, "bad min_ms", http.StatusBadRequest)
			return
		}
		f.MinDur = time.Duration(ms * float64(time.Millisecond))
	}
	if v := q.Get("rung"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			http.Error(w, "bad rung", http.StatusBadRequest)
			return
		}
		f.MinRung = int32(n)
	}
	if v := q.Get("forced"); v == "1" || v == "true" {
		f.ForcedOnly = true
	}
	f.Stage = q.Get("stage")
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			http.Error(w, "bad limit", http.StatusBadRequest)
			return
		}
		f.Limit = n
	}
	views := h.Spans.Traces(f)
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(map[string]any{
		"sample_rate": h.Spans.Rate(),
		"rung":        h.Spans.Rung(),
		"escalations": h.Spans.Escalations(),
		"traces":      views,
	})
}

func (h *Hub) serveStatusz(w http.ResponseWriter, _ *http.Request) {
	snap := h.StatusSnapshot()
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(snap) // map keys marshal sorted: stable for curl | diff

}

// Serve starts the exposition server on addr (host:port; port 0 picks a free
// one) and returns the bound address. It is idempotent per hub: a second
// call returns the first server's address.
func (h *Hub) Serve(addr string) (string, error) {
	h.srvMu.Lock()
	defer h.srvMu.Unlock()
	if h.lis != nil {
		return h.lis.Addr().String(), nil
	}
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	h.lis = lis
	h.srv = &http.Server{Handler: h.Handler()}
	go func() { _ = h.srv.Serve(lis) }()
	return lis.Addr().String(), nil
}

// Addr returns the bound exposition address, or "" when not serving.
func (h *Hub) Addr() string {
	h.srvMu.Lock()
	defer h.srvMu.Unlock()
	if h.lis == nil {
		return ""
	}
	return h.lis.Addr().String()
}

// Close stops the exposition server (a no-op when none is running).
func (h *Hub) Close() error {
	h.srvMu.Lock()
	srv := h.srv
	h.srv, h.lis = nil, nil
	h.srvMu.Unlock()
	if srv == nil {
		return nil
	}
	return srv.Close()
}
