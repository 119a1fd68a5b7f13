package main

import (
	"bytes"
	"runtime"
	"sync"
	"syscall"
	"time"

	"tornado"
	"tornado/internal/queryserv"
)

// counters is one reading of every public stats snapshot the layers expose.
type counters struct {
	at    time.Time
	stats tornado.StatsSnapshot
	flow  tornado.FlowStats
	store tornado.StoreStats
	qs    queryserv.Snapshot
	feed  tornado.FeedStats
	mem   runtime.MemStats
	cpuS  float64
}

func readCounters(h *harness) counters {
	c := counters{at: time.Now(), stats: h.sys.Stats(), flow: h.sys.FlowStats(), qs: h.sys.QueryService().Snapshot()}
	c.store, _ = h.sys.StoreStats()
	if h.feed != nil {
		c.feed = h.feed.Stats()
	}
	runtime.ReadMemStats(&c.mem)
	c.cpuS = processCPUSeconds()
	return c
}

// processCPUSeconds is user plus system CPU time of this process.
func processCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// layerWindow measures the layers from outside over the measured window:
// counter deltas between two readings of the public snapshots, plus gauges
// sampled every 10 ms and one /metrics render per second.
type layerWindow struct {
	h     *harness
	start counters

	mu          sync.Mutex
	uncommitted []float64
	queueDepth  []float64
	pinnedPeak  int64
	scrapeMS    []float64
	series      int
}

func openLayerWindow(h *harness, stop <-chan struct{}, wg *sync.WaitGroup) *layerWindow {
	lw := &layerWindow{h: h, start: readCounters(h)}
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for n := 0; ; n++ {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			unc, _ := h.sys.Engine().JournalSize()
			st, _ := h.sys.StoreStats()
			depth := h.sys.Stats().DeltaQueueDepth
			lw.mu.Lock()
			lw.uncommitted = append(lw.uncommitted, float64(unc))
			lw.queueDepth = append(lw.queueDepth, float64(depth))
			lw.pinnedPeak = max(lw.pinnedPeak, st.PinnedSnapshots)
			lw.mu.Unlock()
			if n%100 == 0 {
				lw.scrape()
			}
		}
	}()
	return lw
}

// scrape renders the system's /metrics page once, timing it.
func (lw *layerWindow) scrape() {
	var buf bytes.Buffer
	t0 := time.Now()
	_ = lw.h.sys.Obs().Registry.WritePrometheus(&buf)
	took := time.Since(t0)
	series := 0
	for _, line := range bytes.Split(buf.Bytes(), []byte{'\n'}) {
		if len(line) > 0 && line[0] != '#' {
			series++
		}
	}
	lw.mu.Lock()
	lw.scrapeMS = append(lw.scrapeMS, float64(took)/float64(time.Millisecond))
	lw.series = series
	lw.mu.Unlock()
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// close takes the second reading and writes every counter-derived layer
// metric into res.
func (lw *layerWindow) close(res *runResult) {
	a, b := lw.start, readCounters(lw.h)
	secs := b.at.Sub(a.at).Seconds()
	m := res.layers
	d := func(x, y int64) float64 { return float64(y - x) }

	m["feed.emitted"] = d(a.feed.Emitted, b.feed.Emitted)
	m["feed.acked"] = d(a.feed.Acked, b.feed.Acked)
	m["feed.retried"] = d(a.feed.Retried, b.feed.Retried)
	m["feed.spout_pauses"] = d(a.feed.SpoutPauses, b.feed.SpoutPauses)
	m["feed.spout_paused_s"] = (b.feed.SpoutPaused - a.feed.SpoutPaused).Seconds()

	m["flow.gate_waits"] = d(a.flow.Engine.GateWaits, b.flow.Engine.GateWaits)
	m["flow.gate_wait_s"] = (b.flow.Engine.GateWaitTime - a.flow.Engine.GateWaitTime).Seconds()
	m["flow.gate_peak"] = float64(b.flow.Engine.GatePeak)
	m["flow.overload_transitions"] = d(a.flow.OverloadTransitions, b.flow.OverloadTransitions)
	m["flow.degraded_s"] = (b.flow.Degraded - a.flow.Degraded).Seconds()

	commits := d(a.stats.Commits, b.stats.Commits)
	updates := d(a.stats.UpdateMsgs, b.stats.UpdateMsgs)
	inputs := d(a.stats.InputMsgs, b.stats.InputMsgs)
	m["engine.commits"] = commits
	m["engine.update_msgs"] = updates
	m["engine.prepare_msgs"] = d(a.stats.PrepareMsgs, b.stats.PrepareMsgs)
	m["engine.ack_msgs"] = d(a.stats.AckMsgs, b.stats.AckMsgs)
	m["engine.input_msgs"] = inputs
	m["engine.coalesced"] = d(a.stats.Coalesced, b.stats.Coalesced)
	m["engine.commits_per_tuple"] = ratio(commits, inputs)
	m["engine.updates_per_commit"] = ratio(updates, commits)
	m["engine.prepares_per_commit"] = ratio(m["engine.prepare_msgs"], commits)
	m["engine.allocs_per_commit"] = ratio(float64(b.mem.Mallocs-a.mem.Mallocs), commits)
	m["engine.frontier_iters_per_s"] = ratio(d(a.stats.Notified, b.stats.Notified), secs)

	sent := d(a.stats.TransportSent, b.stats.TransportSent)
	resent := d(a.stats.TransportResent, b.stats.TransportResent)
	payloads := d(a.stats.TransportPayloads, b.stats.TransportPayloads)
	m["transport.frames_sent"] = sent
	m["transport.payloads_per_frame"] = ratio(payloads, sent-resent)
	m["transport.ack_frames_per_payload"] = ratio(d(a.stats.TransportAckFrames, b.stats.TransportAckFrames), payloads)
	m["transport.resent"] = resent
	m["transport.resend_ratio"] = ratio(resent, sent)
	m["transport.dead_letters"] = d(a.stats.TransportDeadLetters, b.stats.TransportDeadLetters)
	m["transport.stalls"] = d(a.flow.Engine.Stalls, b.flow.Engine.Stalls)
	m["transport.held_frames"] = d(a.flow.Engine.FramesHeld, b.flow.Engine.FramesHeld)

	txFrames := d(a.stats.WireTxFrames, b.stats.WireTxFrames)
	txBytes := d(a.stats.WireTxBytes, b.stats.WireTxBytes)
	m["wire.tx_frames"] = txFrames
	m["wire.tx_bytes"] = txBytes
	m["wire.bytes_per_frame"] = ratio(txBytes, txFrames)
	m["wire.bytes_per_update"] = ratio(txBytes, updates)
	m["wire.reconnects"] = d(a.stats.WireReconnects, b.stats.WireReconnects)
	m["wire.checksum_failures"] = d(a.stats.WireChecksumFailures, b.stats.WireChecksumFailures)
	m["wire.torn_frames"] = d(a.stats.WireTornFrames, b.stats.WireTornFrames)

	m["storage.live_versions"] = float64(b.store.LiveVersions)
	m["storage.resident_mb"] = float64(b.store.ResidentBytes) / (1 << 20)
	m["storage.compactions"] = d(a.store.Compactions, b.store.Compactions)

	m["delta.merged"] = d(a.stats.DeltaMerged, b.stats.DeltaMerged)
	m["delta.parked"] = d(a.stats.DeltaSkipped, b.stats.DeltaSkipped)
	m["delta.applied"] = d(a.stats.DeltaApplied, b.stats.DeltaApplied)

	m["queryserv.submitted"] = d(a.qs.Submitted, b.qs.Submitted)
	m["queryserv.forks"] = d(a.qs.Admitted, b.qs.Admitted)
	m["queryserv.coalesced"] = d(a.qs.Coalesced, b.qs.Coalesced)
	m["queryserv.cache_hits"] = d(a.qs.CacheHits, b.qs.CacheHits)
	m["queryserv.shed"] = d(a.qs.Shed, b.qs.Shed)
	m["queryserv.expired"] = d(a.qs.Expired, b.qs.Expired)
	m["queryserv.failed"] = d(a.qs.Failed, b.qs.Failed)

	m["runtime.gc_pause_total_ms"] = float64(b.mem.PauseTotalNs-a.mem.PauseTotalNs) / 1e6
	m["runtime.gc_cpu_frac"] = b.mem.GCCPUFraction
	m["runtime.heap_inuse_mb_end"] = float64(b.mem.HeapInuse) / (1 << 20)
	m["runtime.num_gc"] = float64(b.mem.NumGC - a.mem.NumGC)
	m["runtime.cpu_s"] = b.cpuS - a.cpuS

	lw.mu.Lock()
	defer lw.mu.Unlock()
	m["engine.uncommitted_p50"] = median(lw.uncommitted)
	m["delta.queue_depth_p50"] = median(lw.queueDepth)
	m["storage.pinned_snapshots_peak"] = float64(lw.pinnedPeak)
	m["obs.series_count"] = float64(lw.series)
	m["obs.metrics_scrape_ms"] = median(lw.scrapeMS)
}
