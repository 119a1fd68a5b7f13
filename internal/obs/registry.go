// Package obs is Tornado's runtime observability layer:
//
//   - a Registry of named counters, gauges and histograms with labels
//     (loop, kind, program), exposable in Prometheus text format;
//   - a StreamHist, a bounded-memory streaming histogram, so main loops that
//     run for days do not accumulate raw samples;
//   - a Hub tying them together with the span tracer of package obs/trace
//     (causal freshness traces and the protocol markers of watched
//     vertices) behind an HTTP exposition surface (/metrics, /statusz,
//     /traces, /debug/pprof).
//
// Counters are plain atomic.Int64 values: the engine's hot-path counters
// register themselves, so exposition reads the very same atomics the engine
// already maintains and instrumentation adds no per-message cost.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one key=value metric dimension.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Gauge is a settable level, safe for concurrent use. The zero value is
// ready to use.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current level.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// collectorKind distinguishes the exposition types.
type collectorKind uint8

const (
	kindCounter collectorKind = iota
	kindGauge
	kindHistogram
)

func (k collectorKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// collector is one (name, labels) time series.
type collector struct {
	labels []Label
	value  func() float64 // counter and gauge reads
	ctr    *atomic.Int64
	gauge  *Gauge
	hist   *StreamHist
}

// family groups the collectors sharing a metric name.
type family struct {
	name       string
	kind       collectorKind
	help       string
	collectors map[string]*collector // keyed by canonical label string
}

// Registry holds named metric families. All methods are safe for concurrent
// use. Collectors are created through a Scope, which carries base labels and
// can unregister everything it created (branch loops come and go; their
// series must not accumulate forever).
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
	aliases  map[string]string // legacy name -> canonical name
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family), aliases: make(map[string]string)}
}

// Alias exposes the canonical family under a second (legacy) name for one
// release after a rename: scrapes see both names with identical series, and
// the legacy HELP text marks it deprecated. Aliasing a name that never
// registers is harmless (nothing is emitted).
func (r *Registry) Alias(legacy, canonical string) {
	r.mu.Lock()
	r.aliases[legacy] = canonical
	r.mu.Unlock()
}

// Scope returns a registration handle whose collectors all carry the given
// base labels. Closing the scope unregisters them.
func (r *Registry) Scope(base ...Label) *Scope {
	return &Scope{reg: r, base: base}
}

// labelKey canonicalizes a label set (sorted by key) for map lookup.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	return b.String()
}

func sortLabels(labels []Label) []Label {
	out := make([]Label, len(labels))
	copy(out, labels)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// register adds (or retrieves) the collector for (name, labels). A kind
// mismatch across registrations of the same name is a wiring bug and panics.
// created reports whether this call created the collector.
func (r *Registry) register(name, help string, kind collectorKind, labels []Label, mk func() *collector) (c *collector, created bool) {
	labels = sortLabels(labels)
	key := labelKey(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, kind: kind, help: help, collectors: make(map[string]*collector)}
		r.families[name] = f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, f.kind, kind))
	}
	if f.help == "" {
		f.help = help
	}
	if existing, ok := f.collectors[key]; ok {
		return existing, false
	}
	c = mk()
	c.labels = labels
	f.collectors[key] = c
	return c, true
}

// unregister removes one collector; empty families are dropped.
func (r *Registry) unregister(name string, labels []Label) {
	key := labelKey(sortLabels(labels))
	r.mu.Lock()
	defer r.mu.Unlock()
	if f := r.families[name]; f != nil {
		delete(f.collectors, key)
		if len(f.collectors) == 0 {
			delete(r.families, name)
		}
	}
}

// Scope registers collectors under a fixed set of base labels and remembers
// them so Close can unregister the lot. Safe for concurrent use.
type Scope struct {
	reg  *Registry
	base []Label

	mu    sync.Mutex
	owned []ownedRef
}

type ownedRef struct {
	name   string
	labels []Label
}

func (s *Scope) merge(extra []Label) []Label {
	out := make([]Label, 0, len(s.base)+len(extra))
	out = append(out, s.base...)
	out = append(out, extra...)
	return out
}

func (s *Scope) own(name string, labels []Label, created bool) {
	if !created {
		return
	}
	s.mu.Lock()
	s.owned = append(s.owned, ownedRef{name: name, labels: labels})
	s.mu.Unlock()
}

// Counter returns the named counter with the scope's labels (plus extra),
// creating it on first use.
func (s *Scope) Counter(name, help string, extra ...Label) *atomic.Int64 {
	labels := s.merge(extra)
	c, created := s.reg.register(name, help, kindCounter, labels, func() *collector {
		ctr := &atomic.Int64{}
		return &collector{ctr: ctr, value: func() float64 { return float64(ctr.Load()) }}
	})
	s.own(name, c.labels, created)
	return c.ctr
}

// RegisterCounter exposes an existing counter (e.g. an engine hot-path
// counter) under the scope's labels. Exposition reads the counter directly,
// so the hot path pays nothing for being observable.
func (s *Scope) RegisterCounter(name, help string, ctr *atomic.Int64, extra ...Label) {
	labels := s.merge(extra)
	c, created := s.reg.register(name, help, kindCounter, labels, func() *collector {
		return &collector{ctr: ctr, value: func() float64 { return float64(ctr.Load()) }}
	})
	s.own(name, c.labels, created)
}

// Gauge returns the named settable gauge, creating it on first use.
func (s *Scope) Gauge(name, help string, extra ...Label) *Gauge {
	labels := s.merge(extra)
	c, created := s.reg.register(name, help, kindGauge, labels, func() *collector {
		g := &Gauge{}
		return &collector{gauge: g, value: g.Value}
	})
	s.own(name, c.labels, created)
	return c.gauge
}

// GaugeFunc exposes a read-at-scrape-time gauge (frontier position, queue
// depth). fn must be safe to call from any goroutine.
func (s *Scope) GaugeFunc(name, help string, fn func() float64, extra ...Label) {
	labels := s.merge(extra)
	c, created := s.reg.register(name, help, kindGauge, labels, func() *collector {
		return &collector{value: fn}
	})
	s.own(name, c.labels, created)
}

// Histogram returns the named streaming histogram, creating it on first use
// with the given bucket upper bounds (nil = DefaultBuckets).
func (s *Scope) Histogram(name, help string, bounds []float64, extra ...Label) *StreamHist {
	labels := s.merge(extra)
	c, created := s.reg.register(name, help, kindHistogram, labels, func() *collector {
		return &collector{hist: NewStreamHist(bounds)}
	})
	s.own(name, c.labels, created)
	return c.hist
}

// Close unregisters every collector this scope created. Collectors that
// already existed (created by another scope) are untouched.
func (s *Scope) Close() {
	s.mu.Lock()
	owned := s.owned
	s.owned = nil
	s.mu.Unlock()
	for _, ref := range owned {
		s.reg.unregister(ref.name, ref.labels)
	}
}

// promLabels renders {k="v",...} with Prometheus escaping ("" when empty).
func promLabels(labels []Label, extra ...Label) string {
	all := append(append([]Label{}, labels...), extra...)
	if len(all) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range all {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabelValue(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every family in Prometheus text exposition format
// (version 0.0.4), families and series in deterministic sorted order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	// Legacy alias names render as additional families mirroring their
	// canonical target's collectors.
	for legacy, canonical := range r.aliases {
		if r.families[canonical] != nil && r.families[legacy] == nil {
			names = append(names, legacy)
		}
	}
	sort.Strings(names)
	type snap struct {
		name string
		help string
		fam  *family
		keys []string
	}
	snaps := make([]snap, 0, len(names))
	for _, name := range names {
		f := r.families[name]
		help := ""
		if f == nil {
			canonical := r.aliases[name]
			f = r.families[canonical]
			help = fmt.Sprintf("Deprecated alias for %s.", canonical)
		} else {
			help = f.help
		}
		keys := make([]string, 0, len(f.collectors))
		for k := range f.collectors {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		snaps = append(snaps, snap{name: name, help: help, fam: f, keys: keys})
	}
	r.mu.RUnlock()

	for _, sn := range snaps {
		f := sn.fam
		if sn.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", sn.name, sn.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", sn.name, f.kind); err != nil {
			return err
		}
		for _, k := range sn.keys {
			r.mu.RLock()
			c := f.collectors[k]
			r.mu.RUnlock()
			if c == nil {
				continue // unregistered between snapshot and render
			}
			if err := writeCollector(w, sn.name, f.kind, c); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeCollector(w io.Writer, name string, kind collectorKind, c *collector) error {
	if kind != kindHistogram {
		_, err := fmt.Fprintf(w, "%s%s %s\n", name, promLabels(c.labels), formatValue(c.value()))
		return err
	}
	s := c.hist.Snapshot()
	cum := uint64(0)
	for i, bound := range s.Bounds {
		cum += s.Counts[i]
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
			name, promLabels(c.labels, L("le", formatValue(bound))), cum); err != nil {
			return err
		}
	}
	cum += s.Counts[len(s.Bounds)]
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, promLabels(c.labels, L("le", "+Inf")), cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, promLabels(c.labels), formatValue(s.Sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, promLabels(c.labels), s.Count)
	return err
}
