package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"tornado"
	"tornado/internal/delta"
	"tornado/internal/engine"
	"tornado/internal/flow"
	"tornado/internal/storage"
	"tornado/internal/stream"
	"tornado/internal/transport"
)

// A probe stops at probeCalls calls or after probeFor, whichever is first
// (variables so the dry-run test can shorten them).
var (
	probeCalls = 100_000
	probeFor   = time.Second
)

// firstErr keeps the first error of a timed loop: a probe that errored
// timed the failure path.
type firstErr struct{ err error }

func (f *firstErr) note(err error) {
	if f.err == nil {
		f.err = err
	}
}

// timeOp calls op in rounds of batch calls until it has made probeCalls
// calls or spent probeFor, and returns the mean nanoseconds per call. The
// clock is read once per round, so batch sets how much a cheap op is
// disturbed by the reading.
func timeOp(batch int, op func()) float64 {
	start := time.Now()
	calls := 0
	for calls < probeCalls && time.Since(start) < probeFor {
		for i := 0; i < batch; i++ {
			op()
		}
		calls += batch
	}
	return float64(time.Since(start)) / float64(calls)
}

// runProbes times exported functions of each layer on inputs captured from
// the finished workload, outside the measured window. Probes of layers the
// workload does not engage are skipped and read 0.
func runProbes(h *harness, res *runResult) error {
	m := res.layers
	w := h.cfg.w
	var perr firstErr
	note := perr.note

	gate := flow.NewGate(16384, 0)
	m["flow.gate_acquire_release_ns"] = timeOp(1000, func() { gate.Acquire(); gate.Release(1) })

	tracker := engine.NewTracker(0)
	m["engine.tracker_acquire_release_ns"] = timeOp(1000, func() { tracker.Release(tracker.AcquireFloor(0)) })

	fork, err := probeFork(h.sys)
	if err != nil {
		return err
	}
	m["engine.fork_ms"] = fork

	// The bytes the main loop persisted for its vertices, as the run left
	// them: what commit encodes and what a fork decodes.
	eng := h.sys.Engine()
	store := eng.Config().Store
	var blobs [][]byte
	if err := store.Scan(storage.MainLoop, math.MaxInt64, func(r storage.Record) error {
		blobs = append(blobs, append([]byte(nil), r.Data...))
		return nil
	}); err != nil {
		return fmt.Errorf("probe: scan final states: %w", err)
	}
	if len(blobs) == 0 {
		return fmt.Errorf("probe: the run left no stored states")
	}
	codec := engine.GobCodec{}
	values := make([]any, len(blobs))
	total := 0
	for i, b := range blobs {
		if values[i], err = codec.Decode(b); err != nil {
			return fmt.Errorf("probe: %w", err)
		}
		total += len(b)
	}
	bytesPerState := total / len(blobs)
	m["codec.bytes_per_state"] = float64(total) / float64(len(blobs))
	i := 0
	next := func() int { i = (i + 1) % len(blobs); return i }
	m["codec.encode_us"] = timeOp(1, func() { _, err := codec.Encode(values[next()]); note(err) }) / 1e3
	m["codec.decode_us"] = timeOp(1, func() { _, err := codec.Decode(blobs[next()]); note(err) }) / 1e3
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	const trips = 2000
	for k := 0; k < trips; k++ {
		b, err := codec.Encode(values[next()])
		note(err)
		_, err = codec.Decode(b)
		note(err)
	}
	runtime.ReadMemStats(&m1)
	m["codec.allocs_per_roundtrip"] = float64(m1.Mallocs-m0.Mallocs) / trips
	m["codec.cpu_share_est"] = ratio(m["engine.commits"]*m["codec.encode_us"]/1e6, m["runtime.cpu_s"])

	// The wire's payload codec on the same values (a migration ships them;
	// the engine's own message types are not constructible from outside).
	pc := transport.GobPayloadCodec{}
	var buf []byte
	m["codec.payload_encode_us"] = timeOp(1, func() {
		var err error
		buf, err = pc.EncodePayload(buf[:0], values[next()])
		note(err)
	}) / 1e3
	m["codec.payload_decode_us"] = timeOp(1, func() { _, err := pc.DecodePayload(buf); note(err) }) / 1e3

	m["transport.send_recv_ns_per_payload"], err = probeTransport(nil)
	if err != nil {
		return err
	}
	m["wire.send_recv_us_per_payload"] = 0
	if w.wire {
		ln, err := transport.ListenTCP("127.0.0.1:0")
		if err != nil {
			return fmt.Errorf("probe: %w", err)
		}
		ns, err := probeTransport(&transport.WireConfig{Listener: ln, Dialer: transport.TCPDialer{}, ForceLoop: true})
		if err != nil {
			return err
		}
		m["wire.send_recv_us_per_payload"] = ns / 1e3
	}

	note(probeStorage(m, bytesPerState, len(blobs)))

	m["delta.pq_push_pop_ns"] = 0
	if w.delta {
		q := delta.NewQueue()
		id := 0
		m["delta.pq_push_pop_ns"] = timeOp(1, func() {
			for k := 0; k < 1024; k++ {
				id++
				q.Push(stream.VertexID(id), float64((id*2654435761)%100003), 0)
			}
			for k := 0; k < 1024; k++ {
				q.PopMax()
			}
		}) / 1024
	}
	if perr.err != nil {
		return fmt.Errorf("probe: %w", perr.err)
	}
	return nil
}

// probeFork times ForkBranch from the quiescent main loop until the branch
// is quiescent too: snapshot handle, branch construction, start and stop.
func probeFork(sys *tornado.System) (float64, error) {
	eng := sys.Engine()
	store := eng.Config().Store
	loop := storage.LoopID(1 << 40) // far above the loop IDs the system hands out
	var ferr error
	ns := timeOp(1, func() {
		loop++
		br, _, err := eng.ForkBranch(loop, nil, nil)
		if err != nil {
			ferr = err
			return
		}
		if err := br.WaitQuiesce(quiesceTimeout); err != nil {
			ferr = err
		}
		br.Stop()
		_ = store.DropLoop(loop) // scratch loop of the probe; nothing reads it again
	})
	if ferr != nil {
		return 0, fmt.Errorf("probe: fork: %w", ferr)
	}
	return ns / 1e6, nil
}

// probeTransport times Send→RecvBatch between two endpoints with the
// engine's shipping batch options, in nanoseconds per payload. With a wire
// config every frame crosses a TCP loopback connection.
func probeTransport(wire *transport.WireConfig) (float64, error) {
	opts := transport.Options{MaxBatch: 64, FlushInterval: 2 * time.Millisecond, InboxHigh: 4096, Wire: wire}
	if wire != nil {
		opts.ResendAfter = 5 * time.Millisecond // what engine.Config defaults to under Wire
	}
	net := transport.NewNetwork(opts)
	defer net.Close()
	a, b := net.Register(0), net.Register(1)
	const round = 64
	var env []transport.Envelope
	ok := true
	ns := timeOp(1, func() {
		for k := 0; k < round; k++ {
			a.Send(1, int64(k))
		}
		a.Flush()
		for got := 0; got < round && ok; {
			env, ok = b.RecvBatch(env)
			got += len(env)
		}
	})
	if !ok {
		return 0, fmt.Errorf("probe: transport endpoint closed mid-probe")
	}
	return ns / round, nil
}

// probeStorage times the MVCC store's primitives on payloads the size of
// the run's states, over as many vertices as the run had.
func probeStorage(m map[string]float64, payload, vertices int) error {
	s := storage.NewMVCCStore()
	defer s.Close()
	data := make([]byte, payload)
	const loop = storage.MainLoop
	var perr firstErr
	note := perr.note
	for v := 0; v < vertices; v++ {
		note(s.Put(loop, stream.VertexID(v), 0, data))
	}
	n := 0
	m["storage.put_ns"] = timeOp(100, func() {
		n++
		note(s.Put(loop, stream.VertexID(n%vertices), int64(n/vertices+1), data))
	})
	m["storage.latest_ns"] = timeOp(100, func() {
		n++
		_, _, err := s.Latest(loop, stream.VertexID(n%vertices), math.MaxInt64)
		note(err)
	})
	m["storage.snapshot_ns"] = timeOp(100, func() { s.Snapshot(loop).Release() })
	m["storage.scan_us_per_kvertex"] = timeOp(1, func() {
		note(s.Scan(loop, math.MaxInt64, func(storage.Record) error { return nil }))
	}) / 1e3 / (float64(vertices) / 1000)
	return perr.err
}
