// Command tornado-shell is an interactive Tornado session: feed edges of an
// evolving graph line by line and query the exact fixed point (SSSP or
// PageRank) at any instant. It demonstrates the main-loop / branch-loop
// split live: ingestion never blocks on queries and queries never wait for
// recomputation.
//
// Usage:
//
//	tornado-shell [-algo sssp|pagerank] [-mode value|delta] [-source N] [-procs N] [-bound B] [-spares N] [-autoscale]
//
// With -mode delta the loop runs the delta-accumulative engine (DESIGN.md
// §13): updates fold into per-vertex pending deltas, an activation queue
// fires them as the iteration frontier reaches them, most significant first,
// and 'stats' additionally shows
// the activation queue depth and the merged, parked and applied counts. The
// fixed point is identical to value mode.
//
// Commands (also via piped stdin):
//
//	add <src> <dst>      insert the edge src -> dst
//	remove <src> <dst>   retract the edge
//	load <n> <epv> <seed> generate a power-law graph and ingest it
//	query                fork a branch loop and print the fixed point
//	submit [d] [p]       enqueue an async query (staleness tolerance d
//	                     journal deltas, priority p) and print its ticket id
//	queries              list live/finished tickets and service counters
//	result <id>          collect a finished ticket's fixed point
//	cancel <id>          cancel a queued/running ticket
//	approx               print the main loop's current approximation
//	merge                query, then merge the result back (Section 5.2)
//	stats                runtime counters and loop snapshot
//	store                MVCC store stats: live versions, resident bytes,
//	                     compactions, reclaimed versions, pinned snapshots
//	                     and the oldest snapshot's age
//	flow                 backpressure state (alias: pressure): the
//	                     admission-gate ledger, transport inbox watermark
//	                     state and query shedding
//	trace [id]           no argument: print recent end-to-end causal
//	                     freshness traces (sampled input deltas and queries
//	                     with per-stage latency attribution); with a vertex
//	                     id: that watched vertex's protocol events
//	slow [min-ms] [n]    the n slowest retained traces at least min-ms of
//	                     wall time (defaults 0ms, 8)
//	watch <id>           record a vertex's protocol events (see trace)
//	partitions           the partition plan: epoch (bumped by every
//	                     migration, reshard and quarantine), per-slot state
//	                     (active/spare/quarantined), hosted vertices (a
//	                     restarted loop hosts them lazily, as traffic
//	                     reaches them) and commit/update counters, layered
//	                     range overrides and lifetime migration counters
//	scale out            split the hottest partition onto a spare slot
//	scale in <slot>      drain slot and retire it from the plan
//	scale move <lo> <hi> <slot>  move the vertex range [lo, hi] onto slot
//	                     (every scale command stops ingestion, lets the
//	                     loop come to rest and restarts it from its
//	                     checkpoint under the new plan; DESIGN.md §16)
//	crash <i|master>     crash processor i (or the master) for real:
//	                     its in-memory state dies, and the crash restarts
//	                     the loop from the last checkpoint (Section 5.3)
//	faults               print the recovery log and quarantined set
//	help                 this text
//	quit
//
// With -metrics host:port the session serves /metrics (Prometheus text),
// /statusz (JSON) and /debug/pprof while it runs.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"tornado"
	"tornado/internal/algorithms"
	"tornado/internal/datasets"
	"tornado/internal/obs/trace"
	"tornado/internal/stream"
)

func main() {
	algo := flag.String("algo", "sssp", "algorithm: sssp or pagerank")
	mode := flag.String("mode", "value", "execution mode: value or delta (delta-accumulative with selective activation)")
	source := flag.Uint64("source", 0, "SSSP source vertex")
	procs := flag.Int("procs", 4, "processors")
	bound := flag.Int64("bound", 64, "delay bound B (1 = synchronous)")
	metricsAddr := flag.String("metrics", "", "serve /metrics, /statusz, /debug/pprof on host:port (\":0\" picks a port)")
	spanRate := flag.Float64("span-sample", 0, "head-sampling rate for causal freshness traces (0 = default 1%, 1 = all, negative = off)")
	wire := flag.Bool("wire", false, "run the message plane over a TCP loopback socket (serialized, CRC-framed, supervised reconnects)")
	spares := flag.Int("spares", 1, "spare processor slots for hot splits ('scale out'/'scale move'; 0 disables elasticity)")
	autoscale := flag.Bool("autoscale", false, "run the pressure-driven split/merge planner in the background")
	flag.Parse()

	deltaMode := *mode == "delta"
	if !deltaMode && *mode != "value" {
		fmt.Fprintf(os.Stderr, "unknown mode %q\n", *mode)
		os.Exit(2)
	}
	var prog tornado.Program
	var dprog tornado.DeltaProgram
	var render func(id tornado.VertexID, state any) string
	switch *algo {
	case "sssp":
		if deltaMode {
			dprog = algorithms.DeltaSSSP{Source: tornado.VertexID(*source)}
		} else {
			prog = algorithms.SSSP{Source: tornado.VertexID(*source)}
		}
		render = func(id tornado.VertexID, state any) string {
			var d int64
			switch st := state.(type) {
			case *algorithms.SSSPState:
				d = st.Length
			case *algorithms.DeltaSSSPState:
				d = st.Length
			}
			if d >= algorithms.Unreachable {
				return fmt.Sprintf("%d: unreachable", id)
			}
			return fmt.Sprintf("%d: %d hops", id, d)
		}
	case "pagerank":
		if deltaMode {
			dprog = algorithms.DeltaPageRank{Epsilon: 1e-4}
		} else {
			prog = algorithms.PageRank{Epsilon: 1e-4}
		}
		render = func(id tornado.VertexID, state any) string {
			return fmt.Sprintf("%d: rank %.4f", id, state.(*algorithms.PageRankState).Rank)
		}
	default:
		fmt.Fprintf(os.Stderr, "unknown algorithm %q\n", *algo)
		os.Exit(2)
	}

	opts := tornado.Options{
		Processors:     *procs,
		DelayBound:     *bound,
		MetricsAddr:    *metricsAddr,
		SpanSampleRate: *spanRate,
	}
	if *spares > 0 {
		opts.Elastic = tornado.ElasticOptions{
			MaxProcessors: *procs + *spares,
			AutoScale:     *autoscale,
		}
	}
	if *wire {
		opts.Wire = &tornado.WireSpec{}
	}
	var sys *tornado.System
	var err error
	if deltaMode {
		sys, err = tornado.NewDelta(dprog, opts)
	} else {
		sys, err = tornado.New(prog, opts)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer sys.Close()

	fmt.Printf("tornado-shell: %s (%s mode), %d processors, B=%d (type 'help')\n", *algo, *mode, *procs, *bound)
	if addr := sys.WireAddr(); addr != "" {
		fmt.Printf("wire: %s\n", addr)
	}
	if url := sys.MetricsURL(); url != "" {
		fmt.Printf("observability: %s/metrics %s/statusz %s/debug/pprof\n", url, url, url)
	}
	ts := stream.Timestamp(0)
	sc := bufio.NewScanner(os.Stdin)
	for prompt(); sc.Scan(); prompt() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "add", "remove":
			src, dst, err := parseEdge(fields)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			ts++
			if fields[0] == "add" {
				sys.Ingest(stream.AddEdge(ts, src, dst))
			} else {
				sys.Ingest(stream.RemoveEdge(ts, src, dst))
			}
		case "load":
			if len(fields) != 4 {
				fmt.Println("usage: load <vertices> <edges-per-vertex> <seed>")
				continue
			}
			n, _ := strconv.Atoi(fields[1])
			epv, _ := strconv.Atoi(fields[2])
			seed, _ := strconv.ParseInt(fields[3], 10, 64)
			tuples := datasets.PowerLawGraph(n, epv, seed)
			sys.IngestAll(tuples)
			fmt.Printf("ingested %d edge updates\n", len(tuples))
		case "query":
			runQuery(sys, render, false)
		case "merge":
			runQuery(sys, render, true)
		case "submit":
			var spec tornado.QuerySpec
			if len(fields) > 1 {
				d, err := strconv.ParseUint(fields[1], 10, 64)
				if err != nil {
					fmt.Println("usage: submit [stale-deltas] [priority]")
					continue
				}
				spec.MaxStaleDeltas = d
			}
			if len(fields) > 2 {
				p, err := strconv.Atoi(fields[2])
				if err != nil {
					fmt.Println("usage: submit [stale-deltas] [priority]")
					continue
				}
				spec.Priority = p
			}
			tk, err := sys.Submit(context.Background(), spec)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Printf("ticket %d submitted ('result %d' to collect, 'queries' to list)\n", tk.ID(), tk.ID())
		case "queries":
			qs := sys.QueryService()
			for _, info := range qs.Queries() {
				line := fmt.Sprintf("  #%-4d %-8s age=%-12v prio=%d", info.ID, info.State, info.Age.Round(time.Millisecond), info.Priority)
				if info.Coalesced {
					line += " coalesced"
				}
				if info.CacheHit {
					line += " cache-hit"
				}
				if info.Err != "" {
					line += " error=" + info.Err
				}
				fmt.Println(line)
			}
			snap := qs.Snapshot()
			fmt.Printf("submitted=%d admitted=%d coalesced=%d cache-hits=%d shed=%d cancelled=%d expired=%d\n",
				snap.Submitted, snap.Admitted, snap.Coalesced, snap.CacheHits, snap.Shed, snap.Cancelled, snap.Expired)
			fmt.Printf("queue-depth=%d inflight=%d cached=%d live-tickets=%d\n",
				snap.QueueDepth, snap.Inflight, snap.Cached, snap.Tickets)
		case "result":
			if len(fields) != 2 {
				fmt.Println("usage: result <ticket-id>")
				continue
			}
			id, err := strconv.ParseUint(fields[1], 10, 64)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			tk, ok := sys.QueryService().Ticket(id)
			if !ok {
				fmt.Println("no such ticket (already collected or cancelled?)")
				continue
			}
			res, qerr, done := tk.Poll()
			if !done {
				fmt.Println("still pending (try again, or 'cancel' it)")
				continue
			}
			if qerr != nil {
				fmt.Println("query failed:", qerr)
				continue
			}
			var lines []string
			scanErr := res.Scan(func(id tornado.VertexID, state any) error {
				lines = append(lines, render(id, state))
				return nil
			})
			if scanErr != nil {
				fmt.Println("error:", scanErr)
				res.Close()
				continue
			}
			printSorted(lines)
			tag := ""
			if res.CacheHit {
				tag = fmt.Sprintf(", served from cache %d deltas stale", res.Staleness)
			} else if res.Coalesced {
				tag = ", coalesced with a concurrent query"
			}
			fmt.Printf("(latency %v%s)\n", res.Latency.Round(time.Microsecond), tag)
			res.Close()
		case "cancel":
			if len(fields) != 2 {
				fmt.Println("usage: cancel <ticket-id>")
				continue
			}
			id, err := strconv.ParseUint(fields[1], 10, 64)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			if sys.QueryService().Cancel(id) {
				fmt.Println("cancelled")
			} else {
				fmt.Println("no such ticket")
			}
		case "approx":
			var lines []string
			err := sys.ScanApprox(func(id tornado.VertexID, state any) error {
				lines = append(lines, render(id, state))
				return nil
			})
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			printSorted(lines)
		case "stats":
			s := sys.Stats()
			fmt.Printf("updates=%d update-msgs=%d prepares=%d acks=%d inputs=%d emits=%d\n",
				s.Commits, s.UpdateMsgs, s.PrepareMsgs, s.AckMsgs, s.InputMsgs, s.Emits)
			fmt.Printf("frontier=%d notified=%d pending-prepares=%d transport frames=%d delivered=%d resent=%d\n",
				s.Frontier, s.Notified, s.PendingPrepares, s.TransportSent, s.TransportDelivered, s.TransportResent)
			ppf, app := 0.0, 0.0
			if first := s.TransportSent - s.TransportResent; first > 0 {
				ppf = float64(s.TransportPayloads) / float64(first)
			}
			if s.TransportPayloads > 0 {
				app = float64(s.TransportAckFrames) / float64(s.TransportPayloads)
			}
			fmt.Printf("batching payloads=%d payloads/frame=%.2f coalesced=%d acks/payload=%.3f\n",
				s.TransportPayloads, ppf, s.Coalesced, app)
			fmt.Printf("generation=%d crashes=%d recoveries=%d quarantined=%d\n",
				s.Generation, s.Crashes, s.Recoveries, s.Quarantined)
			if deltaMode {
				fmt.Printf("delta queue-depth=%d merged=%d parked=%d applied=%d\n",
					s.DeltaQueueDepth, s.DeltaMerged, s.DeltaSkipped, s.DeltaApplied)
			}
			if addr := sys.WireAddr(); addr != "" {
				bpf := 0.0
				if s.WireTxFrames > 0 {
					bpf = float64(s.WireTxBytes) / float64(s.WireTxFrames)
				}
				fmt.Printf("wire addr=%s tx=%d rx=%d bytes tx=%d rx=%d (%.0f B/frame) reconnects=%d checksum-failures=%d torn=%d\n",
					addr, s.WireTxFrames, s.WireRxFrames, s.WireTxBytes, s.WireRxBytes,
					bpf, s.WireReconnects, s.WireChecksumFailures, s.WireTornFrames)
			}
			if url := sys.MetricsURL(); url != "" {
				fmt.Printf("endpoint: %s/metrics\n", url)
			}
		case "store":
			st, _ := sys.StoreStats()
			fmt.Printf("loops=%d live-versions=%d resident-bytes=%d\n",
				st.Loops, st.LiveVersions, st.ResidentBytes)
			fmt.Printf("compactions=%d reclaimed-versions=%d pinned-snapshots=%d oldest-snapshot=%s\n",
				st.Compactions, st.ReclaimedVersions, st.PinnedSnapshots,
				st.OldestSnapshotAge.Round(time.Millisecond))
		case "flow", "pressure":
			fs := sys.FlowStats()
			qs := sys.QueryService().Snapshot()
			sat := ""
			if fs.Engine.GateSaturated {
				sat = " SATURATED"
			}
			fmt.Printf("ingest gate depth=%d/%d peak=%d%s waits=%d paused-for=%s resets=%d\n",
				fs.Engine.GateDepth, fs.Engine.GateCapacity, fs.Engine.GatePeak, sat,
				fs.Engine.GateWaits, fs.Engine.GateWaitTime.Round(time.Millisecond), fs.Engine.GateResets)
			fmt.Printf("transport inbox max=%d total=%d stalled-endpoints=%d held-frames=%d stalls=%d frames-held=%d\n",
				fs.Engine.InboxMax, fs.Engine.InboxTotal, fs.Engine.StalledEndpoints,
				fs.Engine.HeldFrames, fs.Engine.Stalls, fs.Engine.FramesHeld)
			fmt.Printf("queries shed=%d queue-depth=%d\n", qs.Shed, qs.QueueDepth)
		case "partitions":
			ps := sys.PlanStats()
			fmt.Printf("plan epoch=%d processors=%d/%d migrations=%d aborts=%d\n",
				ps.Epoch, ps.BaseProcessors, ps.MaxProcessors, ps.Migrations, ps.Aborts)
			for _, l := range sys.PartitionLoads() {
				state := "spare"
				switch {
				case l.Quarantined:
					state = "quarantined"
				case l.Active:
					state = "active"
				}
				line := fmt.Sprintf("  slot %d  %-11s vertices=%-7d commits=%-9d updates=%d",
					l.Proc, state, l.Vertices, l.Commits, l.Updates)
				if deltaMode {
					line += fmt.Sprintf("  queue=%d", l.QueueDepth)
				}
				fmt.Println(line)
			}
			if n := len(ps.Overrides); n > 0 {
				fmt.Printf("%d range override(s) layered on the base partition function:\n", n)
				for _, ov := range ps.Overrides {
					owner := "any owner"
					if ov.From >= 0 {
						owner = fmt.Sprintf("slot %d", ov.From)
					}
					fmt.Printf("  [%d, %d] owned by %s -> slot %d\n", ov.Range.Lo, ov.Range.Hi, owner, ov.Dest)
				}
			}
		case "scale":
			if len(fields) < 2 {
				fmt.Println("usage: scale out | scale in <slot> | scale move <lo> <hi> <slot>")
				continue
			}
			switch fields[1] {
			case "out":
				slot, err := sys.ScaleOut()
				if err != nil {
					fmt.Println("error:", err)
					continue
				}
				fmt.Printf("hottest partition split onto slot %d (plan epoch %d); 'partitions' to inspect\n",
					slot, sys.PlanStats().Epoch)
			case "in":
				if len(fields) != 3 {
					fmt.Println("usage: scale in <slot>")
					continue
				}
				slot, err := strconv.Atoi(fields[2])
				if err != nil {
					fmt.Println("error:", err)
					continue
				}
				if err := sys.ScaleIn(slot); err != nil {
					fmt.Println("error:", err)
					continue
				}
				fmt.Printf("slot %d drained and retired (plan epoch %d)\n", slot, sys.PlanStats().Epoch)
			case "move":
				if len(fields) != 5 {
					fmt.Println("usage: scale move <lo> <hi> <slot>")
					continue
				}
				lo, err1 := strconv.ParseUint(fields[2], 10, 64)
				hi, err2 := strconv.ParseUint(fields[3], 10, 64)
				slot, err3 := strconv.Atoi(fields[4])
				if err1 != nil || err2 != nil || err3 != nil {
					fmt.Println("usage: scale move <lo> <hi> <slot>")
					continue
				}
				if err := sys.Migrate(tornado.VertexID(lo), tornado.VertexID(hi), slot); err != nil {
					fmt.Println("error:", err)
					continue
				}
				fmt.Printf("range [%d, %d] moved onto slot %d (plan epoch %d)\n",
					lo, hi, slot, sys.PlanStats().Epoch)
			default:
				fmt.Println("usage: scale out | scale in <slot> | scale move <lo> <hi> <slot>")
			}
		case "crash":
			if len(fields) != 2 {
				fmt.Println("usage: crash <processor-index|master>")
				continue
			}
			if fields[1] == "master" {
				sys.CrashMaster()
				fmt.Println("master crashed: termination notifications stopped")
			} else {
				i, err := strconv.Atoi(fields[1])
				if err != nil {
					fmt.Println("error:", err)
					continue
				}
				sys.CrashProcessor(i)
				fmt.Printf("processor %d crashed: its in-memory state is gone\n", i)
			}
			fmt.Println("(the loop restarts from the last checkpoint)")
		case "faults":
			log := sys.RecoveryLog()
			if len(log) == 0 {
				fmt.Println("no failures recorded")
			}
			for _, ev := range log {
				who := strconv.Itoa(ev.Proc)
				switch ev.Proc {
				case -1:
					who = "master"
				case -2:
					who = "loop"
				}
				line := fmt.Sprintf("  %s  gen %d  %-10s %s", ev.Time.Format("15:04:05.000"), ev.Gen, ev.Kind, who)
				if ev.Kind == "recovery" {
					line += fmt.Sprintf("  resumed above iteration %d", ev.Resume)
				}
				if ev.Detail != "" {
					line += "  (" + ev.Detail + ")"
				}
				fmt.Println(line)
			}
			if q := sys.Quarantined(); len(q) > 0 {
				fmt.Printf("quarantined processors: %v\n", q)
			}
		case "trace":
			if len(fields) > 2 {
				fmt.Println("usage: trace [vertex-id]")
				continue
			}
			if len(fields) == 1 {
				views := sys.Spans().Traces(trace.Filter{Limit: 8})
				if len(views) == 0 {
					fmt.Println("no spans retained yet (tracing samples ~1% of deltas; ingest more, or raise SpanSampleRate)")
					continue
				}
				for _, v := range views {
					fmt.Print(v)
				}
				continue
			}
			id, err := strconv.ParseUint(fields[1], 10, 64)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			events := sys.Trace(tornado.VertexID(id))
			if len(events) == 0 {
				fmt.Println("no events recorded (only watched vertices record them: 'watch' it first)")
				continue
			}
			for _, e := range events {
				fmt.Println(" ", e)
			}
		case "slow":
			minDur := time.Duration(0)
			limit := 8
			if len(fields) > 1 {
				msf, err := strconv.ParseFloat(fields[1], 64)
				if err != nil {
					fmt.Println("usage: slow [min-ms] [count]")
					continue
				}
				minDur = time.Duration(msf * float64(time.Millisecond))
			}
			if len(fields) > 2 {
				n, err := strconv.Atoi(fields[2])
				if err != nil {
					fmt.Println("usage: slow [min-ms] [count]")
					continue
				}
				limit = n
			}
			views := sys.Spans().Slowest(minDur, limit)
			if len(views) == 0 {
				fmt.Println("no traces at or above that duration")
				continue
			}
			for _, v := range views {
				fmt.Print(v)
			}
		case "watch":
			if len(fields) != 2 {
				fmt.Println("usage: watch <vertex-id>")
				continue
			}
			id, err := strconv.ParseUint(fields[1], 10, 64)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			sys.Watch(tornado.VertexID(id))
			fmt.Printf("watching vertex %d (its protocol events are now recorded)\n", id)
		case "help":
			fmt.Println("commands: add s d | remove s d | load n epv seed | query | submit [d] [p] | queries | result id | cancel id | merge | approx | stats | store | flow | partitions | scale out|in|move | trace [id] | slow [ms] [n] | watch id | crash i|master | faults | quit")
		case "quit", "exit":
			return
		default:
			fmt.Printf("unknown command %q (try 'help')\n", fields[0])
		}
	}
}

func prompt() {
	fmt.Print("> ")
}

func parseEdge(fields []string) (src, dst tornado.VertexID, err error) {
	if len(fields) != 3 {
		return 0, 0, fmt.Errorf("usage: %s <src> <dst>", fields[0])
	}
	s, err := strconv.ParseUint(fields[1], 10, 64)
	if err != nil {
		return 0, 0, err
	}
	d, err := strconv.ParseUint(fields[2], 10, 64)
	if err != nil {
		return 0, 0, err
	}
	return tornado.VertexID(s), tornado.VertexID(d), nil
}

func runQuery(sys *tornado.System, render func(tornado.VertexID, any) string, merge bool) {
	res, err := sys.Query(time.Minute)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	defer res.Close()
	var lines []string
	err = res.Scan(func(id tornado.VertexID, state any) error {
		lines = append(lines, render(id, state))
		return nil
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	printSorted(lines)
	fmt.Printf("(branch converged in %v, forked at iteration %d)\n",
		res.Latency.Round(time.Microsecond), res.ForkIteration())
	if merge {
		if err := sys.Merge(res); err != nil {
			fmt.Println("merge error:", err)
			return
		}
		fmt.Println("(merged back into the main loop)")
	}
}

func printSorted(lines []string) {
	sort.Strings(lines)
	for _, l := range lines {
		fmt.Println(" ", l)
	}
}
