package trace

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Filter selects traces from the ring. The zero value matches everything
// (subject to the default limit).
type Filter struct {
	// Trace selects one trace by ID (0 = all).
	Trace uint64
	// MinDur drops traces whose wall duration (first span start to last span
	// end) is below the bound.
	MinDur time.Duration
	// ForcedOnly keeps only traces retained by tail escalation.
	ForcedOnly bool
	// Stage keeps only traces containing a span with this stage name.
	Stage string
	// Limit caps the returned traces (most recent first; default 32).
	Limit int
}

// TraceView is one reconstructed trace: its spans in recording order plus
// roll-ups for filtering and display.
type TraceView struct {
	// Trace is the trace ID.
	Trace uint64 `json:"trace"`
	// Start is the first span's start offset from the tracer's start.
	Start time.Duration `json:"start_ns"`
	// Wall is last span end minus first span start; Busy is the sum of the
	// spans' attributed durations (Busy < Wall means time spent between
	// instrumented stages).
	Wall time.Duration `json:"wall_ns"`
	Busy time.Duration `json:"busy_ns"`
	// Forced reports tail-escalation retention.
	Forced bool `json:"forced"`
	// Stages lists the distinct stage names in first-seen order.
	Stages []string `json:"stages"`
	// Spans are the trace's spans, ascending Seq.
	Spans []Span `json:"spans"`
}

// Traces reconstructs traces from the retained spans, most recent first.
func (t *Tracer) Traces(f Filter) []TraceView {
	if t == nil {
		return nil
	}
	if f.Limit <= 0 {
		f.Limit = 32
	}
	byTrace := make(map[uint64]*TraceView)
	order := make([]uint64, 0, 64) // trace IDs by last activity (ascending)
	for _, sp := range t.Snapshot() {
		if sp.Trace == 0 || (f.Trace != 0 && sp.Trace != f.Trace) {
			continue
		}
		tv, ok := byTrace[sp.Trace]
		if !ok {
			tv = &TraceView{Trace: sp.Trace, Start: sp.Start}
			byTrace[sp.Trace] = tv
		} else {
			// Re-append to keep `order` sorted by last activity.
			for i, id := range order {
				if id == sp.Trace {
					order = append(order[:i], order[i+1:]...)
					break
				}
			}
		}
		order = append(order, sp.Trace)
		tv.Spans = append(tv.Spans, sp)
		if sp.Start < tv.Start {
			tv.Start = sp.Start
		}
		if end := sp.Start + sp.Dur; end > tv.Start+tv.Wall {
			tv.Wall = end - tv.Start
		}
		tv.Busy += sp.Dur
		tv.Forced = tv.Forced || sp.Forced
		seen := false
		for _, s := range tv.Stages {
			if s == sp.Stage {
				seen = true
				break
			}
		}
		if !seen {
			tv.Stages = append(tv.Stages, sp.Stage)
		}
	}
	out := make([]TraceView, 0, len(order))
	for i := len(order) - 1; i >= 0 && len(out) < f.Limit; i-- {
		tv := byTrace[order[i]]
		if tv.Wall < f.MinDur || (f.ForcedOnly && !tv.Forced) {
			continue
		}
		if f.Stage != "" {
			found := false
			for _, s := range tv.Stages {
				if s == f.Stage {
					found = true
					break
				}
			}
			if !found {
				continue
			}
		}
		out = append(out, *tv)
	}
	return out
}

// Slowest returns up to limit traces with wall duration >= minDur, slowest
// first. It is the shell's `slow` command.
func (t *Tracer) Slowest(minDur time.Duration, limit int) []TraceView {
	if limit <= 0 {
		limit = 8
	}
	// Pull everything the ring holds, then rank by wall duration.
	all := t.Traces(Filter{MinDur: minDur, Limit: 1 << 20})
	sort.SliceStable(all, func(i, j int) bool { return all[i].Wall > all[j].Wall })
	if len(all) > limit {
		all = all[:limit]
	}
	return all
}

// String renders the trace for the shell: one header line plus one line per
// span with stage-attributed durations.
func (v TraceView) String() string {
	var b strings.Builder
	flags := ""
	if v.Forced {
		flags = " forced"
	}
	fmt.Fprintf(&b, "trace %d  wall=%.3fms busy=%.3fms stages=%s%s\n",
		v.Trace, ms(v.Wall), ms(v.Busy), strings.Join(v.Stages, ","), flags)
	for _, sp := range v.Spans {
		fmt.Fprintf(&b, "  %s\n", sp)
	}
	return b.String()
}

// String renders one span on one line: stage, start offset, attributed
// duration, location, peer, iteration and coalesce link.
func (sp Span) String() string {
	loc := fmt.Sprintf("loop=%d v%d", sp.Loop, sp.Vertex)
	if sp.Vertex == NoVertex {
		loc = fmt.Sprintf("loop=%d -", sp.Loop)
	}
	link := ""
	if sp.Link != 0 {
		link = fmt.Sprintf(" link=%d", sp.Link)
	}
	return fmt.Sprintf("%-13s %9.3fms +%8.3fms %s peer=%d iter=%d%s",
		sp.Stage, ms(sp.Start), ms(sp.Dur), loc, sp.Peer, sp.Iter, link)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
