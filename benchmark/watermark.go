package main

import (
	"sync"
	"time"
)

// journal is the slice of engine.Engine the commit watermark is read from.
type journal interface {
	JournalSeq() uint64
	JournalSize() (uncommitted, retained int)
}

// committed reads the commit watermark from outside: the number of inputs
// ever ingested minus those not yet committed. The sequence is read first,
// so inputs ingested between the two calls can only lower the result — the
// watermark errs towards "not yet committed".
func committed(j journal) uint64 {
	seq := j.JournalSeq()
	unc, _ := j.JournalSize()
	if uint64(unc) > seq {
		return 0
	}
	return seq - uint64(unc)
}

// batch is one paced ingest operation awaiting its commit.
type batch struct {
	op       int64
	cum      uint64    // journal sequence after the batch's last tuple
	due      time.Time // open loop: when the schedule wanted it sent
	ingested time.Time // when the ingest call returned (zero while in flight)
}

// commitTracker turns watermark readings into per-batch commit latencies,
// measured from each batch's due time.
type commitTracker struct {
	mu       sync.Mutex
	pending  []batch // ascending cum
	latMS    []float64
	limit    time.Duration
	missed   int
	progress time.Time // last time the watermark retired a batch (or one was added to an empty queue)
	tr       *tracer
}

func newCommitTracker(limit time.Duration, tr *tracer) *commitTracker {
	return &commitTracker{limit: limit, tr: tr, progress: time.Now()}
}

// add registers a batch before it is handed to the system, so the watermark
// cannot pass it unseen.
func (t *commitTracker) add(op int64, cum uint64, due time.Time) {
	t.mu.Lock()
	if len(t.pending) == 0 {
		t.progress = time.Now()
	}
	t.pending = append(t.pending, batch{op: op, cum: cum, due: due})
	t.mu.Unlock()
}

// ingested stamps the return of the batch's ingest call.
func (t *commitTracker) ingested(op int64, at time.Time) {
	t.mu.Lock()
	for i := range t.pending {
		if t.pending[i].op == op {
			t.pending[i].ingested = at
			break
		}
	}
	t.mu.Unlock()
}

// observe retires every batch the watermark has passed.
func (t *commitTracker) observe(watermark uint64, now time.Time) {
	t.mu.Lock()
	n := 0
	for n < len(t.pending) && t.pending[n].cum <= watermark {
		b := t.pending[n]
		lat := now.Sub(b.due)
		t.latMS = append(t.latMS, float64(lat)/float64(time.Millisecond))
		if lat > t.limit {
			t.missed++
		}
		if !b.ingested.IsZero() {
			t.tr.add("bench.commit_wait", 0, b.op, b.ingested, now)
		}
		n++
	}
	if n > 0 {
		t.pending = t.pending[n:]
		t.progress = now
	}
	t.mu.Unlock()
}

// stalledFor reports how long batches have waited without the watermark
// retiring any.
func (t *commitTracker) stalledFor(now time.Time) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.pending) == 0 {
		return 0
	}
	return now.Sub(t.progress)
}

func (t *commitTracker) outstanding() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.pending)
}

// results returns the latencies and the number of batches that missed the
// limit; batches still pending count as missed.
func (t *commitTracker) results() (latMS []float64, missed int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]float64(nil), t.latMS...), t.missed + len(t.pending)
}
