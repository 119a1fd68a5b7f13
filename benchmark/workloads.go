package main

import (
	"math/rand"
	"time"

	"tornado"
	"tornado/internal/algorithms"
	"tornado/internal/datasets"
	"tornado/internal/stream"
)

// configDeviation is the one recorded departure from tornado.Options{}: the
// delay bound B is pinned (Flow.DelayBoundCeiling = -1; the overload
// controller still runs). See README.md, "Defects found while sizing".
const configDeviation = "Flow.DelayBoundCeiling=-1"

// A cycle of a run's measured window is three phases: saturation (closed
// loop), paced ingest (open loop, no queries) and queries (open loop, each
// behind a burst of input). Queries get their own phase because one exact
// query on two cores takes long enough to turn the commit latency beside it
// bimodal. Saturation gets the largest share because its rate repeats
// worst, paced ingest the smallest because its latency repeats best.
const (
	cycleSeconds = 5.0 // a run is as many cycles of about this length as fit its window (workload.cycle overrides)
	satShare     = 0.4
	pacedShare   = 0.25
)

// workload fixes one workload's sizes, rates and latency limits. Rates are
// absolute numbers, so a parent commit and a change see identical load.
type workload struct {
	name string
	why  string

	vertices, degree int  // datasets.PowerLawGraph(vertices, degree, seed)
	delta            bool // tornado.NewDelta(DeltaPageRank) instead of value-mode SSSP
	wire             bool // Options.Wire = &WireSpec{} (TCP loopback)
	feed             bool // ingest through System.AttachSource
	canary           bool // traced pass also runs the stall canary on the unmodified default options

	batch      int     // tuples per paced ingest operation, and per burst ahead of a query
	pacedRate  int     // tuples/s in the paced phase (open loop)
	queryRate  float64 // queries/s in the query phase (open loop)
	staleEvery int     // every n-th query tolerates 1024 stale deltas (0: all exact)
	cycle      float64 // seconds per cycle (0: cycleSeconds)

	// A paced batch or a query slower than its limit counts as failed.
	commitLimit, queryLimit time.Duration
}

var workloads = []workload{
	{
		name:     "sssp_churn_mem",
		why:      "value-mode SSSP under edge churn on the in-memory plane: engine protocol, gob state codec, transport and MVCC put do all the work",
		vertices: 5000, degree: 4, canary: true,
		batch: 64, pacedRate: 4000, queryRate: 5,
		commitLimit: 2 * time.Second, queryLimit: 5 * time.Second,
	},
	{
		name:     "sssp_churn_wire",
		why:      "same program and churn over TCP loopback: the only workload where the wire codec, sockets and the resend ledger carry load",
		vertices: 100, degree: 3, wire: true,
		// Long cycles: after a saturation slice of 2 s the first paced batch
		// on the wire never commits (README.md, "Defects found while sizing").
		batch: 16, pacedRate: 128, queryRate: 8, cycle: 21,
		commitLimit: 20 * time.Second, queryLimit: 50 * time.Second,
	},
	{
		name:     "feed_query_mix",
		why:      "ingest through the feed topology beside exact (fork) and stale-tolerant (cache) queries: reads and writes share store and codec",
		vertices: 2000, degree: 4, feed: true,
		batch: 64, pacedRate: 2000, queryRate: 10, staleEvery: 2,
		commitLimit: 2 * time.Second, queryLimit: 5 * time.Second,
	},
	{
		name:     "pagerank_delta_churn",
		why:      "delta-accumulative PageRank: the same engine, codec and store used as (state, pending) pairs with priority activation",
		vertices: 500, degree: 4, delta: true,
		batch: 64, pacedRate: 5000, queryRate: 2,
		commitLimit: 5 * time.Second, queryLimit: 10 * time.Second,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// options is the shipping configuration plus the recorded deviation.
func (w workload) options() tornado.Options {
	o := tornado.Options{}
	o.Flow.DelayBoundCeiling = -1
	if w.wire {
		o.Wire = &tornado.WireSpec{}
	}
	return o
}

func (w workload) newSystem(o tornado.Options) (*tornado.System, error) {
	if w.delta {
		return tornado.NewDelta(algorithms.DeltaPageRank{}, o)
	}
	return tornado.New(algorithms.SSSP{Source: 0}, o)
}

// graphSeed fixes the base graph of every run. The seed of a run orders the
// churn over it. Graphs drawn from different seeds differ by 40 % in the
// work the same program does on them (set-up on PowerLawGraph(5000,4,·):
// 27 k commits on seed 5, 41 k on seed 2), which would be read as noise.
const graphSeed = 1

// churn is the deterministic input stream of one run: the base graph, then
// an endless pass over a seeded permutation of its edges in which a tenth of
// the graph is kept missing — remove the next edge of the pass, re-add the
// one removed longest ago, and so on, with monotone timestamps. Every edge
// takes its turn, which keeps the work of a run close to the graph's average
// whatever the seed (a fixed tenth of a small graph is cheap or dear
// depending on which hub edges it holds), and removals and insertions
// interleave instead of arriving in waves that coalesce at the hubs.
type churn struct {
	base           []stream.Tuple
	order          []int // seeded permutation of base
	removed, added int   // edges removed and re-added so far
	ts             stream.Timestamp
}

func newChurn(w workload, seed int64) *churn {
	base := datasets.PowerLawGraph(w.vertices, w.degree, graphSeed)
	return &churn{base: base, order: rand.New(rand.NewSource(seed)).Perm(len(base)), ts: stream.Timestamp(len(base))}
}

// wave is how many tuples the saturation phase hands over per call.
func (c *churn) wave() int { return len(c.base) / 10 }

// next appends the stream's next n tuples to dst[:0].
func (c *churn) next(dst []stream.Tuple, n int) []stream.Tuple {
	dst = dst[:0]
	for ; n > 0; n-- {
		c.ts++
		if c.removed-c.added >= len(c.base)/10 {
			e := c.base[c.order[c.added%len(c.order)]]
			c.added++
			dst = append(dst, stream.AddEdge(c.ts, e.Src, e.Dst))
		} else {
			e := c.base[c.order[c.removed%len(c.order)]]
			c.removed++
			dst = append(dst, stream.RemoveEdge(c.ts, e.Src, e.Dst))
		}
	}
	return dst
}
