// Package baselines implements the comparator systems of the paper's
// evaluation (Table 3 and the batch bars of Figure 5) as cost-faithful
// stand-ins:
//
//   - FromScratchEngine replays the Spark role (collect everything, spill to
//     a serialized buffer, reload and recompute on query) and the GraphLab
//     role (recompute in memory on query, no spill).
//   - MiniBatchEngine is the epoch-based incremental system of Section 6.2:
//     results are brought up to date at every epoch boundary with a
//     warm-started incremental kernel, so a query only pays for the partial
//     tail epoch.
//   - NaiadLikeEngine models Naiad's difference traces: each epoch's result
//     delta is retained, a query must first combine every retained trace to
//     reconstruct the current version (cost growing with epochs × changed
//     entries, the degradation Table 3 shows for PageRank) and trace volume
//     beyond the memory budget fails the query (the paper's Naiad KMeans
//     runs out of memory).
//
// The computation kernels are the real sequential algorithms from
// internal/algorithms — the baselines do honest work; only the cluster is
// simulated away (consistently for Tornado and the baselines alike).
package baselines

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"time"

	"tornado/internal/stream"
)

// ErrOutOfMemory is returned by NaiadLikeEngine when retained difference
// traces exceed the memory budget.
var ErrOutOfMemory = errors.New("baselines: difference traces exceed memory budget")

// Result is an opaque workload result (a distance map, rank map, weight
// vector or centroid set).
type Result any

// Workload is one analysis task runnable by every baseline engine.
type Workload interface {
	// Name identifies the workload in benchmark output.
	Name() string
	// Zero returns the empty result.
	Zero() Result
	// FromScratch computes the result over the whole input.
	FromScratch(all []stream.Tuple) Result
	// Incremental brings prev (the result over all[:len(all)-len(delta)])
	// up to date with delta, warm-starting from prev.
	Incremental(prev Result, all, delta []stream.Tuple) Result
	// Diff extracts the difference trace from prev to cur and its entry
	// count.
	Diff(prev, cur Result) (diff any, entries int)
	// Merge folds a difference trace into base.
	Merge(base Result, diff any) Result
	// CostIterations reports the inner iterations performed by the last
	// FromScratch/Incremental call (workload-defined unit; used to assert
	// that warm starts do less work).
	CostIterations() int
	// CostRounds reports the synchronization rounds the last call would
	// need on a cluster (BFS levels, power iterations, Lloyd iterations,
	// SGD batches). The harness charges a simulated network round-trip per
	// round — uniformly for baselines and Tornado — which is what puts the
	// communication floor under small-epoch batch latencies (Section
	// 6.2.1: "the performance is dominated by the communication cost when
	// the batch size becomes small").
	CostRounds() int
}

// QueryStats describes one baseline query.
type QueryStats struct {
	Latency    time.Duration
	Iterations int
	Rounds     int
	// Reloaded counts the input tuples deserialized from the spill before
	// the query recomputed (0 when the input stays in memory).
	Reloaded int
}

// FromScratchEngine recomputes on every query.
type FromScratchEngine struct {
	work   Workload
	spill  bool
	tuples []stream.Tuple
	buf    bytes.Buffer
	enc    *gob.Encoder // persistent: gob streams cannot be concatenated
}

// NewFromScratch returns a from-scratch engine. With spill=true the engine
// serializes the collected input and must deserialize it on query (the
// Spark role); with spill=false the input stays in memory (the GraphLab
// role).
func NewFromScratch(w Workload, spill bool) *FromScratchEngine {
	return &FromScratchEngine{work: w, spill: spill}
}

// Feed appends input tuples.
func (e *FromScratchEngine) Feed(ts ...stream.Tuple) {
	e.tuples = append(e.tuples, ts...)
	if e.spill {
		if e.enc == nil {
			e.enc = gob.NewEncoder(&e.buf)
		}
		for i := range ts {
			if err := e.enc.Encode(&ts[i]); err != nil {
				panic(fmt.Sprintf("baselines: spill: %v", err))
			}
		}
	}
}

// Query computes the result at the current instant.
func (e *FromScratchEngine) Query() (Result, QueryStats, error) {
	start := time.Now()
	input := e.tuples
	if e.spill {
		// Reload the spilled input: the deserialization cost Spark pays for
		// keeping its working set on disk.
		dec := gob.NewDecoder(bytes.NewReader(e.buf.Bytes()))
		reloaded := make([]stream.Tuple, 0, len(e.tuples))
		for len(reloaded) < len(e.tuples) {
			var t stream.Tuple
			if err := dec.Decode(&t); err != nil {
				return nil, QueryStats{}, fmt.Errorf("baselines: reload spilled input: %w", err)
			}
			reloaded = append(reloaded, t)
		}
		input = reloaded
	}
	res := e.work.FromScratch(input)
	st := QueryStats{Latency: time.Since(start), Iterations: e.work.CostIterations(), Rounds: e.work.CostRounds()}
	if e.spill {
		st.Reloaded = len(input)
	}
	return res, st, nil
}

// Len returns the number of collected tuples.
func (e *FromScratchEngine) Len() int { return len(e.tuples) }

// MiniBatchEngine maintains the result at epoch granularity.
type MiniBatchEngine struct {
	work      Workload
	epochSize int
	tuples    []stream.Tuple
	processed int // tuples reflected in cur
	cur       Result
	epochs    int
}

// NewMiniBatch returns a mini-batch incremental engine with the given epoch
// size.
func NewMiniBatch(w Workload, epochSize int) *MiniBatchEngine {
	if epochSize <= 0 {
		panic("baselines: epoch size must be positive")
	}
	return &MiniBatchEngine{work: w, epochSize: epochSize, cur: w.Zero()}
}

// Feed appends input and closes any completed epochs.
func (e *MiniBatchEngine) Feed(ts ...stream.Tuple) {
	e.tuples = append(e.tuples, ts...)
	for len(e.tuples)-e.processed >= e.epochSize {
		end := e.processed + e.epochSize
		e.cur = e.work.Incremental(e.cur, e.tuples[:end], e.tuples[e.processed:end])
		e.processed = end
		e.epochs++
	}
}

// Query brings the result up to date with the partial tail epoch and
// returns it. Only the tail processing is on the query's critical path,
// which is the mini-batch latency story of Section 6.2.1.
func (e *MiniBatchEngine) Query() (Result, QueryStats, error) {
	start := time.Now()
	res := e.work.Incremental(e.cur, e.tuples, e.tuples[e.processed:])
	return res, QueryStats{Latency: time.Since(start), Iterations: e.work.CostIterations(), Rounds: e.work.CostRounds()}, nil
}

// Epochs returns the number of completed epochs.
func (e *MiniBatchEngine) Epochs() int { return e.epochs }

// NaiadLikeEngine retains one difference trace per epoch and reconstructs
// the current version on query.
type NaiadLikeEngine struct {
	work        Workload
	epochSize   int
	memBudget   int // max retained diff entries; <=0 means unlimited
	tuples      []stream.Tuple
	processed   int
	cur         Result // maintained internally to produce diffs
	diffs       []any
	diffEntries int
}

// NewNaiadLike returns a difference-trace engine. memBudget bounds the total
// retained diff entries (<= 0 for unlimited).
func NewNaiadLike(w Workload, epochSize, memBudget int) *NaiadLikeEngine {
	if epochSize <= 0 {
		panic("baselines: epoch size must be positive")
	}
	return &NaiadLikeEngine{work: w, epochSize: epochSize, memBudget: memBudget, cur: w.Zero()}
}

// Feed appends input; each completed epoch appends a difference trace.
func (e *NaiadLikeEngine) Feed(ts ...stream.Tuple) {
	e.tuples = append(e.tuples, ts...)
	for len(e.tuples)-e.processed >= e.epochSize {
		end := e.processed + e.epochSize
		next := e.work.Incremental(e.cur, e.tuples[:end], e.tuples[e.processed:end])
		diff, n := e.work.Diff(e.cur, next)
		e.diffs = append(e.diffs, diff)
		e.diffEntries += n
		e.cur = next
		e.processed = end
	}
}

// OverBudget reports whether the retained traces exceed the memory budget.
func (e *NaiadLikeEngine) OverBudget() bool {
	return e.memBudget > 0 && e.diffEntries > e.memBudget
}

// Query reconstructs the current version from the retained traces and
// processes the partial tail epoch.
func (e *NaiadLikeEngine) Query() (Result, QueryStats, error) {
	if e.OverBudget() {
		return nil, QueryStats{}, fmt.Errorf("%w: %d entries retained", ErrOutOfMemory, e.diffEntries)
	}
	start := time.Now()
	// Combine every difference trace to restore the current version — the
	// reconstruction cost that grows with the number of epochs.
	state := e.work.Zero()
	for _, d := range e.diffs {
		state = e.work.Merge(state, d)
	}
	res := e.work.Incremental(state, e.tuples, e.tuples[e.processed:])
	return res, QueryStats{Latency: time.Since(start), Iterations: e.work.CostIterations(), Rounds: e.work.CostRounds()}, nil
}

// Epochs returns the number of retained difference traces.
func (e *NaiadLikeEngine) Epochs() int { return len(e.diffs) }

// DiffEntries returns the total retained trace entries.
func (e *NaiadLikeEngine) DiffEntries() int { return e.diffEntries }
