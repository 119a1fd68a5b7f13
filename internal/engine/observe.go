package engine

import (
	"strconv"
	"sync"
	"time"

	"tornado/internal/metrics"
	"tornado/internal/obs"
	"tornado/internal/storage"
	"tornado/internal/stream"
)

// attachObs hooks the engine into an observability hub: the hot-path
// counters register themselves with the hub's registry under per-loop labels
// (exposition reads the very atomics the engine already maintains, so the
// protocol pays nothing extra), gauges read the tracker at scrape time, and
// the shared protocol tracer is installed for the processors.
// Branch loops are the exception: they fork per query and live for
// milliseconds, so no scrape could ever observe their series, while
// registering (and unregistering) the full collector set would dominate the
// fork fast path (~2x on the fork/converge/close cycle). They therefore
// register nothing — zero new registry families per fork — and instead join
// their parent's pooled branchObs aggregate, whose fixed tornado_branch_*
// families sum live and retired branches at scrape time.
func (e *Engine) attachObs(hub *obs.Hub) {
	e.tracer = hub.Tracer
	if e.cfg.Kind == BranchLoop {
		if bo := e.cfg.branchObs; bo != nil {
			bo.attach(e)
			e.obsDetach = func() { bo.detach(e) }
		}
		return
	}
	loopStr := strconv.FormatUint(uint64(e.cfg.LoopID), 10)
	sc := hub.Registry.Scope(
		obs.L("loop", loopStr),
		obs.L("kind", e.cfg.Kind.String()),
		obs.L("program", e.progLabel()),
	)
	e.obsScope = sc

	sc.RegisterCounter("tornado_commits_total",
		"Vertex updates committed (phase three of the update protocol).", &e.stats.Commits)
	sc.RegisterCounter("tornado_update_msgs_total",
		"COMMIT (update) messages sent to consumers.", &e.stats.UpdateMsgs)
	sc.RegisterCounter("tornado_prepare_msgs_total",
		"PREPARE messages sent (phase two iteration negotiation).", &e.stats.PrepareMsgs)
	sc.RegisterCounter("tornado_ack_msgs_total",
		"ACK messages sent answering prepares.", &e.stats.AckMsgs)
	sc.RegisterCounter("tornado_input_msgs_total",
		"External stream tuples applied to vertices.", &e.stats.InputMsgs)
	sc.RegisterCounter("tornado_emits_total",
		"Values emitted by program Scatter calls.", &e.stats.Emits)
	sc.RegisterCounter("tornado_coalesced_updates_total",
		"Update messages merged into a newer same-pair update before leaving the processor.", &e.stats.Coalesced)
	sc.RegisterCounter("tornado_local_msgs_total",
		"Vertex messages a processor sent to its own vertices, dispatched without touching the transport.", &e.stats.LocalMsgs)

	if e.cfg.Delta != nil {
		sc.RegisterCounter("tornado_delta_merged_total",
			"Deltas accumulated into an already-pending slot (one fewer commit each).", &e.stats.DeltaMerged)
		sc.RegisterCounter("tornado_delta_activations_skipped_total",
			"Sub-threshold pendings parked instead of scheduled (selective activation).", &e.stats.DeltaSkipped)
		sc.RegisterCounter("tornado_delta_applied_total",
			"Pending deltas consumed by commits.", &e.stats.DeltaApplied)
		sc.GaugeFunc("tornado_delta_activation_queue_depth",
			"Summed per-processor activation-queue depth (drained to zero at every receive-window end).",
			func() float64 {
				e.genMu.RLock()
				defer e.genMu.RUnlock()
				var n int64
				for _, p := range e.inc.procs {
					if p != nil {
						n += p.deltaDepth.Load()
					}
				}
				return float64(n)
			})
		sc.GaugeFunc("tornado_delta_threshold_boost",
			"Significance-threshold multiplier (1.0 at rest; raised by the overload ladder).",
			func() float64 { return e.DeltaBoost() })
		// Shorthand spellings stay scrapeable as deprecated aliases so every
		// delta series resolves under the canonical tornado_delta_* names.
		hub.Registry.Alias("tornado_deltas_merged_total", "tornado_delta_merged_total")
		hub.Registry.Alias("tornado_delta_skipped_total", "tornado_delta_activations_skipped_total")
		hub.Registry.Alias("tornado_delta_queue_depth", "tornado_delta_activation_queue_depth")
	}

	sc.RegisterCounter("tornado_transport_sent_total",
		"Data frames accepted for transmission, including resends and duplicates.", &e.netStats.Sent)
	sc.RegisterCounter("tornado_transport_payloads_total",
		"Payloads carried by first-transmission data frames (payloads/frame = payloads / (sent - resent)).", &e.netStats.Payloads)
	sc.RegisterCounter("tornado_transport_delivered_total",
		"Payloads handed to live receivers after frame deduplication.", &e.netStats.Delivered)
	sc.RegisterCounter("tornado_transport_resent_total",
		"Frames retransmitted after the at-least-once ack timeout.", &e.netStats.Resent)
	sc.RegisterCounter("tornado_transport_ack_frames_total",
		"Acknowledgement frames sent by receivers.", &e.netStats.AckFrames)
	sc.RegisterCounter("tornado_transport_dropped_total",
		"Data frames dropped in flight by fault injection.", &e.netStats.Dropped)
	sc.RegisterCounter("tornado_transport_duplicated_total",
		"Data frames duplicated in flight by fault injection.", &e.netStats.Duplicated)
	sc.RegisterCounter("tornado_transport_dead_letters_total",
		"Frames abandoned after exhausting the retransmission budget.", &e.netStats.DeadLetters)

	sc.RegisterCounter("tornado_wire_frames_total",
		"Frames serialized onto the wire substrate.", &e.netStats.WireTxFrames, obs.L("dir", "tx"))
	sc.RegisterCounter("tornado_wire_frames_total",
		"Frames decoded off the wire substrate.", &e.netStats.WireRxFrames, obs.L("dir", "rx"))
	sc.RegisterCounter("tornado_wire_bytes_total",
		"Encoded bytes written to the wire (length prefixes included).", &e.netStats.WireTxBytes, obs.L("dir", "tx"))
	sc.RegisterCounter("tornado_wire_bytes_total",
		"Encoded bytes read from the wire (length prefixes included).", &e.netStats.WireRxBytes, obs.L("dir", "rx"))
	sc.RegisterCounter("tornado_wire_reconnects_total",
		"Supervised re-dials after an established peer connection died.", &e.netStats.WireReconnects)
	sc.RegisterCounter("tornado_wire_checksum_failures_total",
		"Frames whose CRC32 failed verification; each drops its connection, none are delivered.", &e.netStats.WireChecksumFailures)
	sc.RegisterCounter("tornado_wire_torn_frames_total",
		"Frames with framing damage short of a CRC mismatch (truncated bodies, corrupt length prefixes).", &e.netStats.WireTornFrames)
	sc.RegisterCounter("tornado_wire_shed_frames_total",
		"Frames shed before the socket (full peer queue, unresolvable destination) or inbound for unknown endpoints.", &e.netStats.WireShed)

	sc.RegisterCounter("tornado_crashes_total",
		"Processor and master crashes injected (API or fault plan).", &e.crashes)
	sc.RegisterCounter("tornado_recoveries_total",
		"Completed checkpoint restarts (supervisor-driven or manual).", &e.recoveries)
	sc.GaugeFunc("tornado_quarantined_processors",
		"Processors removed from rotation after exceeding the restart budget.",
		func() float64 {
			e.genMu.RLock()
			defer e.genMu.RUnlock()
			return float64(len(e.quarantined))
		})
	sc.GaugeFunc("tornado_incarnation_generation",
		"Loop incarnation number (0 = never recovered).",
		func() float64 { return float64(e.Generation()) })

	// Elastic repartitioning (DESIGN.md §16): plan epoch, active width, and
	// the live-migration counters.
	sc.RegisterCounter("tornado_elastic_migrations_total",
		"Live vertex-range migrations completed (plan epoch published).", &e.migrations)
	sc.RegisterCounter("tornado_elastic_migrated_vertices_total",
		"Vertices shipped between processors by live migrations.", &e.migratedVerts)
	sc.RegisterCounter("tornado_elastic_migration_aborts_total",
		"Live migrations aborted before their cutover (crash or shutdown mid-migration).", &e.migAborts)
	sc.RegisterCounter("tornado_elastic_bounced_frames_total",
		"Vertex-addressed messages re-routed through the plan after arriving at a non-owner.", &e.migBounced)
	sc.GaugeFunc("tornado_elastic_plan_epoch",
		"Partition-plan epoch (bumped by every migration cutover).",
		func() float64 { return float64(e.PlanEpoch()) })
	sc.GaugeFunc("tornado_elastic_active_processors",
		"Processor slots currently owning part of the partition plan.",
		func() float64 { return float64(e.plan.Load().ActiveCount()) })
	e.migDurHist = sc.Histogram("tornado_elastic_migration_seconds",
		"Wall-clock time from freeze to cutover of one live migration.", nil)

	sc.GaugeFunc("tornado_frontier_iteration",
		"Smallest iteration still holding an obligation token (progress frontier).",
		func() float64 { return float64(e.cur().tracker.Frontier()) })
	sc.GaugeFunc("tornado_notified_iteration",
		"Highest iteration announced terminated by the master.",
		func() float64 { return float64(e.cur().tracker.Notified()) })
	sc.GaugeFunc("tornado_frontier_lag_iterations",
		"Distance between the frontier and the highest iteration that ever held a token; compare against the delay bound B when tuning bounded asynchrony.",
		func() float64 { return float64(e.cur().tracker.FrontierLag()) })
	sc.GaugeFunc("tornado_obligations",
		"Outstanding obligation tokens: in-flight inputs, dirty vertices and undelivered updates.",
		func() float64 { return float64(e.cur().tracker.TokenCount()) })
	sc.GaugeFunc("tornado_pending_prepares",
		"PREPARE messages still awaiting their ACK.",
		func() float64 { return float64(e.pendingPrepares.Load()) })

	sc.RegisterCounter("tornado_flow_stalls_total",
		"Transport inbox high-watermark crossings (delivery credit withdrawn).", &e.netStats.Stalls)
	sc.RegisterCounter("tornado_flow_frames_held_total",
		"Data frames senders parked while a receiver withheld credit.", &e.netStats.HeldFrames)
	sc.RegisterCounter("tornado_flow_urgent_shed_total",
		"Stall-exempt control frames shed (acked, not enqueued) by watermark-full receivers.", &e.netStats.UrgentShed)
	sc.GaugeFunc("tornado_flow_inbox_depth_max",
		"Deepest transport inbox right now (compare against the InboxHigh watermark).",
		func() float64 { m, _, _, _ := e.cur().net.QueueDepths(); return float64(m) })
	sc.GaugeFunc("tornado_flow_stalled_endpoints",
		"Endpoints currently withholding delivery credit.",
		func() float64 { _, _, s, _ := e.cur().net.QueueDepths(); return float64(s) })
	sc.GaugeFunc("tornado_flow_held_frames",
		"Frames currently parked at senders waiting for credit.",
		func() float64 { _, _, _, h := e.cur().net.QueueDepths(); return float64(h) })
	sc.GaugeFunc("tornado_flow_delay_bound",
		"Effective delay bound B (above the configured value while degraded).",
		func() float64 { return float64(e.delayBound.Load()) })
	if g := e.ingestGate; g != nil {
		sc.GaugeFunc("tornado_flow_ingest_gate_depth",
			"Inputs admitted but not yet applied to a vertex.",
			func() float64 { return float64(g.Depth()) })
		sc.GaugeFunc("tornado_flow_ingest_gate_capacity",
			"Admission-gate capacity (Config.MaxPendingInputs).",
			func() float64 { return float64(g.Capacity()) })
		// Renamed: the _total suffix wrongly implied a Prometheus counter
		// type for what is exposed as a gauge. The old name stays readable
		// as a deprecated alias for one release.
		sc.GaugeFunc("tornado_flow_ingest_pause_seconds",
			"Cumulative wall-clock time producers spent blocked at the admission gate.",
			func() float64 { return g.WaitTime().Seconds() })
		hub.Registry.Alias("tornado_flow_ingest_pause_seconds_total", "tornado_flow_ingest_pause_seconds")
	}

	// Freshness watermarks: how far each partition's committed work runs
	// ahead of the terminated frontier, and how many journaled inputs have
	// not yet committed (the query path exposes its own journal-seq age).
	for i := 0; i < e.cfg.MaxProcessors; i++ {
		proc := i
		sc.GaugeFunc("tornado_partition_frontier_lag_iterations",
			"Iterations between a partition's newest commit and the terminated frontier (per-partition staleness watermark).",
			func() float64 { return float64(e.partitionLag(proc)) },
			obs.L("proc", strconv.Itoa(proc)))
	}
	if e.journal != nil {
		sc.GaugeFunc("tornado_input_journal_uncommitted",
			"Journaled inputs not yet covered by a vertex commit (ingest-side freshness debt).",
			func() float64 { u, _ := e.journal.Size(); return float64(u) })
	}

	// Versioned-store residency, exported only when the backend accounts
	// itself (the MVCC store does; map/disk backends register nothing).
	// The gauges answer the capacity questions a long-running evolving
	// stream raises: is compaction keeping up (live_versions, resident
	// bytes), is it running at all (compactions_total), and is anything
	// pinning history alive (pinned_snapshots, snapshot_age).
	if sp, ok := e.cfg.Store.(storage.StatsProvider); ok {
		sc.GaugeFunc("tornado_store_live_versions",
			"Versions reachable from the store's live roots across all loops.",
			func() float64 { return float64(sp.StoreStats().LiveVersions) })
		sc.GaugeFunc("tornado_store_resident_bytes",
			"Payload bytes held by live versions (excludes handle-retained epochs, which die with their handles).",
			func() float64 { return float64(sp.StoreStats().ResidentBytes) })
		sc.GaugeFunc("tornado_store_compactions_total",
			"Compaction passes run (engine-driven and background).",
			func() float64 { return float64(sp.StoreStats().Compactions) })
		sc.GaugeFunc("tornado_store_pinned_snapshots",
			"Unreleased snapshot handles plus live fork pins; nonzero with no branches running means a leaked fork.",
			func() float64 { return float64(sp.StoreStats().PinnedSnapshots) })
		sc.GaugeFunc("tornado_store_snapshot_age_seconds",
			"Age of the oldest unreleased snapshot handle (bounds how much superseded history compaction must retain).",
			func() float64 { return sp.StoreStats().OldestSnapshotAge.Seconds() })
	}

	// Branch loops pool their series here instead of registering families.
	e.branchObs = newBranchObs()
	e.branchObs.register(sc)

	e.iterCommitsHist = sc.Histogram("tornado_iteration_commits",
		"Vertex commits per terminated iteration.", obs.ExpBuckets(1, 2, 24))
	e.advanceGapHist = sc.Histogram("tornado_frontier_advance_seconds",
		"Wall-clock gap between consecutive frontier advances.", nil)
	e.mttrHist = sc.Histogram("tornado_recovery_seconds",
		"Time from failure detection to the recovered incarnation running (MTTR).", nil)
	if e.cfg.Wire != nil {
		e.wireFlushHist = sc.Histogram("tornado_wire_frames_per_flush",
			"Frames coalesced into one wire socket flush (the wire's batching ratio).",
			obs.ExpBuckets(1, 2, 12))
	}

	statusName := "loop/" + loopStr
	hub.AddStatus(statusName, e.statusz)
	e.obsDetach = func() {
		hub.RemoveStatus(statusName)
		sc.Close()
	}
}

// statusz is the engine's per-loop /statusz section.
func (e *Engine) statusz() any {
	s := e.StatsSnapshot()
	fs := e.FlowSnapshot()
	tracker := e.cur().tracker
	uptime := time.Since(e.created)
	m := map[string]any{
		"kind":        e.cfg.Kind.String(),
		"program":     e.progLabel(),
		"mode":        e.execMode(),
		"delay_bound": e.cfg.DelayBound,
		"flow": map[string]any{
			"delay_bound_effective": fs.DelayBound,
			"gate_depth":            fs.GateDepth,
			"gate_capacity":         fs.GateCapacity,
			"gate_saturated":        fs.GateSaturated,
			"gate_peak":             fs.GatePeak,
			"gate_waits":            fs.GateWaits,
			"ingest_pause":          fs.GateWaitTime.String(),
			"gate_resets":           fs.GateResets,
			"inbox_max":             fs.InboxMax,
			"inbox_total":           fs.InboxTotal,
			"stalled_endpoints":     fs.StalledEndpoints,
			"held_frames":           fs.HeldFrames,
			"stalls":                fs.Stalls,
			"frames_held":           fs.FramesHeld,
			"urgent_shed":           fs.UrgentShed,
		},
		"processors":         e.cfg.Processors,
		"frontier":           s.Frontier,
		"notified":           s.Notified,
		"frontier_lag":       tracker.FrontierLag(),
		"obligations":        tracker.TokenCount(),
		"pending_prepares":   s.PendingPrepares,
		"generation":         s.Generation,
		"crashes":            s.Crashes,
		"recoveries":         s.Recoveries,
		"quarantined":        s.Quarantined,
		"dead_letters":       s.TransportDeadLetters,
		"commits":            s.Commits,
		"update_msgs":        s.UpdateMsgs,
		"prepare_msgs":       s.PrepareMsgs,
		"ack_msgs":           s.AckMsgs,
		"input_msgs":         s.InputMsgs,
		"emits":              s.Emits,
		"coalesced":          s.Coalesced,
		"local_msgs":         s.LocalMsgs,
		"frames":             s.TransportSent,
		"payloads":           s.TransportPayloads,
		"payloads_per_frame": ratio(s.TransportPayloads, s.TransportSent-s.TransportResent),
		"acks_per_payload":   ratio(s.TransportAckFrames, s.TransportPayloads),
		"ingest_rate":        rate(s.InputMsgs, uptime),
		"commit_rate":        rate(s.Commits, uptime),
		"uptime":             uptime.String(),
	}
	ps := e.PlanStats()
	m["elastic"] = map[string]any{
		"plan_epoch":        ps.Epoch,
		"base_processors":   ps.BaseProcessors,
		"max_processors":    ps.MaxProcessors,
		"active_processors": activeCount(ps.Active),
		"overrides":         len(ps.Overrides),
		"migrations":        ps.Migrations,
		"migrated_vertices": ps.MigratedVertices,
		"aborts":            ps.Aborts,
	}
	if e.cfg.Delta != nil {
		m["delta"] = map[string]any{
			"merged":              s.DeltaMerged,
			"activations_skipped": s.DeltaSkipped,
			"applied":             s.DeltaApplied,
			"queue_depth":         s.DeltaQueueDepth,
			"threshold_boost":     e.DeltaBoost(),
		}
	}
	if sp, ok := e.cfg.Store.(storage.StatsProvider); ok {
		st := sp.StoreStats()
		m["store"] = map[string]any{
			"loops":              st.Loops,
			"live_versions":      st.LiveVersions,
			"resident_bytes":     st.ResidentBytes,
			"compactions":        st.Compactions,
			"reclaimed_versions": st.ReclaimedVersions,
			"pinned_snapshots":   st.PinnedSnapshots,
			"oldest_snapshot":    st.OldestSnapshotAge.String(),
		}
	}
	if e.cfg.Wire != nil {
		m["wire"] = map[string]any{
			"addr":              e.WireAddr(),
			"tx_frames":         s.WireTxFrames,
			"rx_frames":         s.WireRxFrames,
			"tx_bytes":          s.WireTxBytes,
			"rx_bytes":          s.WireRxBytes,
			"reconnects":        s.WireReconnects,
			"checksum_failures": s.WireChecksumFailures,
			"torn_frames":       s.WireTornFrames,
			"bytes_per_frame":   ratio(s.WireTxBytes, s.WireTxFrames),
		}
	}
	return m
}

// activeCount counts true entries of a PlanStats.Active slice.
func activeCount(active []bool) int {
	n := 0
	for _, a := range active {
		if a {
			n++
		}
	}
	return n
}

// ratio divides, returning 0 for an empty denominator.
func ratio(num, den int64) float64 {
	if den <= 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func rate(n int64, over time.Duration) float64 {
	if sec := over.Seconds(); sec > 0 {
		return float64(n) / sec
	}
	return 0
}

// Trace returns the tracer's retained protocol events for one vertex of this
// loop, oldest first (nil without an attached hub). Sampled-out vertices
// yield nothing; Watch them first.
func (e *Engine) Trace(id stream.VertexID) []obs.Event {
	if e.tracer == nil {
		return nil
	}
	return e.tracer.Query(uint64(e.cfg.LoopID), uint64(id))
}

// Watch forces tracing of one vertex regardless of the sampling rate.
func (e *Engine) Watch(id stream.VertexID) {
	if e.tracer != nil {
		e.tracer.Watch(uint64(id))
	}
}

// Unwatch reverses Watch.
func (e *Engine) Unwatch(id stream.VertexID) {
	if e.tracer != nil {
		e.tracer.Unwatch(uint64(id))
	}
}

// partitionLag is the per-partition staleness watermark: the distance between
// the partition's newest committed iteration and the loop's terminated
// frontier. Zero for quarantined or not-yet-committed partitions.
func (e *Engine) partitionLag(proc int) int64 {
	e.genMu.RLock()
	inc := e.inc
	e.genMu.RUnlock()
	if proc >= len(inc.procs) || inc.procs[proc] == nil {
		return 0
	}
	lag := inc.procs[proc].maxCommit.Load() - inc.tracker.Notified()
	if lag < 0 {
		return 0
	}
	return lag
}

// branchTotals accumulates the counters branch loops contribute in aggregate.
type branchTotals struct {
	commits, updates, inputs, emits, coalesced int64
}

func (t *branchTotals) add(e *Engine) {
	t.commits += e.stats.Commits.Value()
	t.updates += e.stats.UpdateMsgs.Value()
	t.inputs += e.stats.InputMsgs.Value()
	t.emits += e.stats.Emits.Value()
	t.coalesced += e.stats.Coalesced.Value()
}

// branchObs pools branch-loop metric series into a fixed family set owned by
// the parent main loop. A fork's entire registration cost is one map insert
// under a mutex (and a delete on stop): no registry families are created or
// destroyed per query, which is what keeps the fork fast path flat — the
// observe-package benchmark and family-count guard pin this. Scrapes sum the
// live branches' hot-path atomics plus the retired accumulator.
type branchObs struct {
	forks metrics.Counter

	mu      sync.Mutex
	live    map[*Engine]struct{}
	retired branchTotals
}

func newBranchObs() *branchObs {
	return &branchObs{live: make(map[*Engine]struct{})}
}

// attach registers a live branch engine into the pool.
func (b *branchObs) attach(br *Engine) {
	if b == nil {
		return
	}
	b.forks.Inc()
	b.mu.Lock()
	b.live[br] = struct{}{}
	b.mu.Unlock()
}

// detach retires a stopping branch: its final counter values fold into the
// accumulator so aggregate totals never move backwards.
func (b *branchObs) detach(br *Engine) {
	if b == nil {
		return
	}
	b.mu.Lock()
	if _, ok := b.live[br]; ok {
		delete(b.live, br)
		b.retired.add(br)
	}
	b.mu.Unlock()
}

// totals sums retired branches and a snapshot of the live ones.
func (b *branchObs) totals() branchTotals {
	b.mu.Lock()
	defer b.mu.Unlock()
	t := b.retired
	for br := range b.live {
		t.add(br)
	}
	return t
}

// register creates the aggregate families once, on the owning main loop's
// scope. Values are read at scrape time.
func (b *branchObs) register(sc *obs.Scope) {
	sc.RegisterCounter("tornado_branch_forks_total",
		"Branch loops forked from this main loop.", &b.forks)
	sc.GaugeFunc("tornado_branch_loops_live",
		"Branch loops currently running.",
		func() float64 { b.mu.Lock(); n := len(b.live); b.mu.Unlock(); return float64(n) })
	sc.GaugeFunc("tornado_branch_commits_total",
		"Vertex commits across all branch loops, live and retired.",
		func() float64 { return float64(b.totals().commits) })
	sc.GaugeFunc("tornado_branch_update_msgs_total",
		"Update messages across all branch loops, live and retired.",
		func() float64 { return float64(b.totals().updates) })
	sc.GaugeFunc("tornado_branch_input_msgs_total",
		"Residual/seed inputs applied across all branch loops.",
		func() float64 { return float64(b.totals().inputs) })
	sc.GaugeFunc("tornado_branch_emits_total",
		"Program emissions across all branch loops.",
		func() float64 { return float64(b.totals().emits) })
	sc.GaugeFunc("tornado_branch_coalesced_updates_total",
		"Updates coalesced across all branch loops.",
		func() float64 { return float64(b.totals().coalesced) })
}
