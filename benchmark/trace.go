package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call the benchmark made into the system. Spans of one
// operation (a paced batch, a query) share Op; Parent is the ID of the span
// that encloses this one, 0 for a root.
type span struct {
	Name    string `json:"name"`
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Op      int64  `json:"op"`
	StartNS int64  `json:"start_ns"` // since the tracer was created
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is the untraced pass.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its ID (0 from a nil tracer).
func (t *tracer) add(name string, parent, op int64, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{name, id, parent, op, int64(start.Sub(t.t0)), int64(end.Sub(t.t0))})
	return id
}

// selfTimes returns every span's duration minus the time its children
// cover, in seconds, grouped by span name.
func (t *tracer) selfTimes() map[string][]float64 {
	out := map[string][]float64{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.EndNS - s.StartNS
		if s.Parent > 0 {
			self[s.Parent-1] -= s.EndNS - s.StartNS
		}
	}
	for i, s := range t.spans {
		out[s.Name] = append(out[s.Name], float64(self[i])/1e9)
	}
	return out
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
