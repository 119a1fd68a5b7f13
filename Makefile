# Tornado build and verify targets. `make check` is the documented verify
# loop (README "Testing"): build, vet, full tests, then the data-race pass
# over the concurrency-heavy observability and storage packages.

GO ?= go

.PHONY: all build test race race-all vet bench bench-engine profile-ingest profile-query profile-delta-query harness-test bench-queries bench-throughput bench-trace bench-wire bench-delta bench-store bench-elastic benchmark fuzz-store fuzz-codec soak-overload soak-elastic chaos chaos-wire check clean

all: check

# build and vet also cover the BENCHMARK.json harness (benchmark/, a module
# of its own), so an internal API change that breaks it fails here.
build:
	$(GO) build ./...
	cd benchmark && $(GO) build ./...

test:
	$(GO) test ./...

# The obs registry and the span tracer (its ring, watch set and protocol
# markers) are hammered concurrently, and the MVCC store's writers mutate in
# place whatever no snapshot handle can reach while handle readers take no
# lock (TestInPlaceWritersVsHandles); keep them honest under the race
# detector on every change. The feed's pump and its
# hand-off at the admission gate are raced 20 times over (the retired
# ingestion topology hung there under -race), WaitQuiesce's return on the
# master's published quiescence record 50 times, a repartition's admission
# stop 20 times, and a crash landing between two frames of a held-frame
# replay 200 times.
race:
	$(GO) test -race ./internal/obs/... ./internal/storage/...
	$(GO) test -race -count=20 -run 'TestAttachSource|TestFeed' .
	$(GO) test -race -count=50 -run 'TestWaitQuiesceCoversMasterRecord|TestStatsAndIterationLog' . ./internal/engine/
	$(GO) test -race -count=20 -run 'TestRepartitionStopsAdmission' ./internal/engine/
	$(GO) test -race -count=200 -run 'TestHeldReplayStopsAtCrash' ./internal/transport/

race-all:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...
	cd benchmark && $(GO) vet ./...

# Crash-recovery and chaos suite under the race detector: true crash
# semantics, crash-triggered checkpoint restart, quarantine, fault plans and the
# seeded soaks (crashes, pauses, forks and reshards in one run). An
# in-process frame cannot be lost, so frame loss is the wire's: the
# $-anchored soak names keep the wire variants out — those run in chaos-wire.
chaos:
	$(GO) test -race ./internal/engine/ -run 'TestCrash|TestSupervisor|TestFlapping|TestFaultPlan|TestChaosSoakRecovery$$|TestChaosSoakSurgeOverload$$|TestDeltaChaosSoakRecovery$$|TestSoakEverythingAtOnce$$'

# Wire-layer chaos under the race detector: codec/supervision/fault-conn
# unit tests, the wire ledger's tests and the fuzz-regression corpus,
# goroutine-leak checks, the multi-process SSSP cluster (real worker
# processes over real sockets, with and without socket-level chaos), the
# hermetic wire-mode engine tests, the lossy-transport engine tests, and every
# soak re-run on a wire that drops and duplicates 2% of its frames (TCP
# loopback for the two chaos soaks, the in-memory wire for the rest).
chaos-wire:
	$(GO) test -race -count=1 ./internal/transport/ ./internal/wirenode/
	$(GO) test -race -count=1 -timeout 15m ./internal/engine/ -run 'TestWireMode|TestLossyTransport|TestAtLeastOnceTransport|TestChaosSoakRecoveryWire|TestChaosSoakSurgeOverloadWire|TestDeltaChaosSoakRecoveryWire|TestSoakEverythingAtOnceWire'

bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./...

# The protocol's inner loop, in-tree: end-to-end ingestion on the MVCC store,
# one exact query behind a churn burst, value mode and delta mode, each on a
# one-processor branch (width=1, the default) and a four-processor one
# (width=4) (with the branch's commits, iterations, emitted values, hosted
# vertices, decoded versions and transport payloads per query), one commit in
# isolation, what one more producer costs a hub consumer, and the message
# plane alone (ns and allocs per delivered message, processor to processor
# and to itself).
bench-engine:
	$(GO) test -run '^$$' -bench 'BenchmarkEngineIngestSSSP$$|BenchmarkEngineForkQuery$$|BenchmarkEngineDeltaForkQuery$$' -benchmem -count 5 .
	$(GO) test -run '^$$' -bench 'BenchmarkProcessorCommit$$|BenchmarkHubInDegree$$|BenchmarkMessageHop$$' -benchmem -count 5 ./internal/engine/

# One traced sssp_churn_mem pass of the BENCHMARK.json harness, then the share
# of its cpu.pprof samples whose stack passes through the runtime's map
# functions (all of them, and without the harness's own host-speed job and the
# programs' state maps, which leaves the protocol's), the store, the
# per-message searches of a vertex's edge records, sync.(*Mutex) (split into
# the store's writer lock and every other lock), the input journal (and the
# processors' part of it, Committed), the shared accounting a processor
# publishes in batches — the tracker, the ingest gate's Release — and the
# Lamport package (its clocks apart: the rest is the stamp test in
# vertex.preparing, a vertex's first load in handleAck), boxing into
# interfaces (runtime.convT*) and the transport's per-payload entry points.
pprof_share_of = $(GO) tool pprof -top -nodecount=100000 -nodefraction=0 $(1) $(2) 2>/dev/null | sed -n 's/^Showing nodes accounting for [^,]*, \([0-9.]*%\) of .*/\1/p'
pprof_share = $(call pprof_share_of,$(1),.bench_build/out/sssp_churn_mem/cpu.pprof)
MAPFUNCS = runtime\.map|internal/runtime/maps\.
MUTEX = sync\.\(\*Mutex\)
STORAGE = internal/storage\.
profile-ingest:
	bash benchmark/run.sh --workload sssp_churn_mem --seed 7 --seconds 20 --trace 1 > /dev/null
	@echo "runtime map functions:  $$($(call pprof_share,-focus='$(MAPFUNCS)'))"
	@echo "  under the protocol:   $$($(call pprof_share,-focus='$(MAPFUNCS)' -ignore='main\.hostJob|internal/algorithms\.'))"
	@echo "storage.*:              $$($(call pprof_share,-focus='$(STORAGE)'))"
	@echo "edge-record searches:   $$($(call pprof_share,-focus='BinarySearchFunc|\(\*vertex\)\.(findOut|findIn|producer)'))"
	@echo "sync.(*Mutex):          $$($(call pprof_share,-focus='$(MUTEX)'))"
	@echo "  under storage.:       $$($(call pprof_share,-focus='$(MUTEX)' -show_from='$(STORAGE)'))"
	@echo "  everywhere else:      $$($(call pprof_share,-focus='$(MUTEX)' -ignore='$(STORAGE)'))"
	@echo "inputJournal.*:         $$($(call pprof_share,-focus='inputJournal'))"
	@echo "  Committed:            $$($(call pprof_share,-focus='\(\*inputJournal\)\.Committed'))"
	@echo "engine.(*Tracker).*:    $$($(call pprof_share,-focus='engine\.\(\*Tracker\)\.'))"
	@echo "flow.(*Gate).Release:   $$($(call pprof_share,-focus='flow\.\(\*Gate\)\.Release$$'))"
	@echo "lamport.*:              $$($(call pprof_share,-focus='internal/lamport\.'))"
	@echo "  (*Clock):             $$($(call pprof_share,-focus='lamport\.\(\*Clock\)'))"
	@echo "runtime.convT*:         $$($(call pprof_share,-focus='runtime\.convT'))"
	@echo "Endpoint.Send|deliver:  $$($(call pprof_share,-focus='transport\.\(\*Endpoint\)\.(Send|deliver)$$'))"

# BenchmarkEngineForkQuery's default sub-benchmark (width=1, a one-processor
# branch) under -cpuprofile (3000 queries), then the share of its samples
# under a branch's vertex bootstrap — processor.ensure, load and touch
# together, load (the stored-version read and decode) and touch alone — in
# the stored-version decode (DecodeBlob, or decodeVertex since the branch
# decodes into the edge records), in the garbage collector, on the message
# plane (outbox.ship and the transport endpoint's methods) and in the
# scheduler's park/ready path (goroutine hand-offs). The profile holds the
# whole process: the main loop's set-up and bursts too, which is where the
# message plane and the scheduler's shares come from now that a branch's
# vertex messages stay on its one processor.
QUERY_PROF = .bench_build/query/cpu.pprof
MSGPLANE = \(\*outbox\)\.ship|transport\.\(\*Endpoint\)
SCHEDULER = runtime\.(park_m|ready|findRunnable)
profile-query:
	@mkdir -p .bench_build/query
	$(GO) test -run '^$$' -bench 'BenchmarkEngineForkQuery$$/^width=1$$' -benchtime 3000x -o .bench_build/query/tornado.test -cpuprofile $(QUERY_PROF) .
	@echo "processor.ensure|load|touch: $$($(call pprof_share_of,-focus='\(\*processor\)\.(ensure|load|touch)$$',$(QUERY_PROF)))"
	@echo "  processor.load:            $$($(call pprof_share_of,-focus='\(\*processor\)\.load$$',$(QUERY_PROF)))"
	@echo "  processor.touch:           $$($(call pprof_share_of,-focus='\(\*processor\)\.touch$$',$(QUERY_PROF)))"
	@echo "stored-version decode:       $$($(call pprof_share_of,-focus='StateCodec\.(DecodeBlob|decodeVertex)$$',$(QUERY_PROF)))"
	@echo "runtime GC (runtime.gc*):    $$($(call pprof_share_of,-focus='^runtime\.gc',$(QUERY_PROF)))"
	@echo "message plane:               $$($(call pprof_share_of,-focus='$(MSGPLANE)',$(QUERY_PROF)))"
	@echo "scheduler park/ready:        $$($(call pprof_share_of,-focus='$(SCHEDULER)',$(QUERY_PROF)))"

# BenchmarkEngineDeltaForkQuery's default sub-benchmark (width=1) under
# -cpuprofile (300 queries), then the share of its samples whose stack passes
# through the commit (processor.commit, the program's Update and the persist
# in it), the gather (processor.gatherUpdate, where deltas fold into
# pendings; a gather that starts a commit counts in both), the activation
# queue's own methods (delta.(*Queue)), the tracker, the stored-version
# decode, the garbage collector, the message plane and the scheduler's
# park/ready path. Like profile-query, the profile holds the main loop's
# set-up and bursts too.
DELTA_QUERY_PROF = .bench_build/delta-query/cpu.pprof
profile-delta-query:
	@mkdir -p .bench_build/delta-query
	$(GO) test -run '^$$' -bench 'BenchmarkEngineDeltaForkQuery$$/^width=1$$' -benchtime 300x -o .bench_build/delta-query/tornado.test -cpuprofile $(DELTA_QUERY_PROF) .
	@echo "processor.commit:            $$($(call pprof_share_of,-focus='\(\*processor\)\.commit$$',$(DELTA_QUERY_PROF)))"
	@echo "processor.gatherUpdate:      $$($(call pprof_share_of,-focus='\(\*processor\)\.gatherUpdate$$',$(DELTA_QUERY_PROF)))"
	@echo "delta.(*Queue).*:            $$($(call pprof_share_of,-focus='delta\.\(\*Queue\)\.',$(DELTA_QUERY_PROF)))"
	@echo "engine.(*Tracker).*:         $$($(call pprof_share_of,-focus='engine\.\(\*Tracker\)\.',$(DELTA_QUERY_PROF)))"
	@echo "stored-version decode:       $$($(call pprof_share_of,-focus='StateCodec\.(DecodeBlob|decodeVertex)$$',$(DELTA_QUERY_PROF)))"
	@echo "runtime GC (runtime.gc*):    $$($(call pprof_share_of,-focus='^runtime\.gc',$(DELTA_QUERY_PROF)))"
	@echo "message plane:               $$($(call pprof_share_of,-focus='$(MSGPLANE)',$(DELTA_QUERY_PROF)))"
	@echo "scheduler park/ready:        $$($(call pprof_share_of,-focus='$(SCHEDULER)',$(DELTA_QUERY_PROF)))"

# Query-serving benchmark (small scale): prints the coalesced-vs-uncoalesced
# table and leaves the BENCH_queries.json artifact.
bench-queries:
	$(GO) run ./cmd/tornado-bench -experiment queries -scale small

# Transport-batching benchmark (small scale): batched vs unbatched sustained
# SSSP throughput; leaves the BENCH_throughput.json artifact.
bench-throughput:
	$(GO) run ./cmd/tornado-bench -experiment throughput -scale small

# Tracing-overhead benchmark (small scale): SSSP soak at span sampling
# off/1%/100%; leaves BENCH_trace_overhead.json and exits nonzero if the
# default 1% rate costs more than 3% of the untraced baseline's updates/sec.
bench-trace:
	$(GO) run ./cmd/tornado-bench -experiment trace_overhead -scale small

# Wire-transport benchmark (small scale): in-memory vs TCP-loopback engine
# on identical SSSP churn, a corruption-storm recovery timing, and the
# multi-process cluster run; leaves the BENCH_wire.json artifact and exits
# nonzero if the cluster run diverges from the reference fixed point.
bench-wire:
	$(GO) run ./cmd/tornado-bench -experiment wire -scale small

# Delta-execution benchmark (small scale): delta-accumulative vs value-mode
# PageRank updates-to-convergence at an equal delay bound on power-law and
# uniform graphs; leaves the BENCH_delta.json artifact and exits nonzero if
# delta mode spends more update messages than value mode on the skewed
# graph.
bench-delta:
	$(GO) run ./cmd/tornado-bench -experiment delta -scale small

# MVCC storage benchmark (small scale): snapshot-fork latency at 1k/10k/100k
# vertices, then a put/flush/fork churn soak with background compaction;
# leaves the BENCH_store.json artifact and exits nonzero if forks stop being
# O(1) (flat in vertex count) or live versions / post-GC heap grow instead of
# plateauing.
bench-store:
	$(GO) run ./cmd/tornado-bench -experiment store -scale small

# Elasticity benchmark (small scale): range-partitioned SSSP churn driven
# through a 4x hot-key skew, with the pressure-driven hot split (a live
# range migration onto the spare slot) versus a ride-it-out control; leaves
# the BENCH_elastic.json artifact and exits nonzero if the planner never
# splits, the control migrates, or the split fails to buy back >= 1.2x of
# the skewed sustained throughput.
bench-elastic:
	$(GO) run ./cmd/tornado-bench -experiment elastic -scale small

# Short randomized-op fuzz pass over both stores, MVCCStore and DiskStore (the
# latter reopened from its log at the end of every input), against the
# storage tests' map-based reference model (the seed corpus plus 30s of new
# inputs).
fuzz-store:
	$(GO) test ./internal/storage/ -run '^$$' -fuzz FuzzMVCCOps -fuzztime 30s

# Short fuzz pass over the fixed-layout state blobs of every registered state
# type (the seed corpus of valid blobs, truncations and bit flips, plus 30s
# of new inputs): decode errors or round-trips, never panics.
fuzz-codec:
	$(GO) test ./internal/algorithms/ -run '^$$' -fuzz FuzzDecodeState -fuzztime 30s

# The BENCHMARK.json harness's own tests (benchmark/ is a module of its own
# that tier-1 neither builds nor tests), against this tree; under 5 s.
harness-test:
	cd benchmark && $(GO) test ./...

# The harness itself: its tests, then every workload untraced and traced.
# About 13 minutes on 2 cores; leaves .bench_build/.
benchmark: harness-test
	bash benchmark/run.sh suite

# Overload soak: the surge-plus-slow-consumer chaos test under the race
# detector (bounded inboxes, credit stalls, recovery mid-surge), the
# saturated-gate system tests (B constant and an exact fixed point after the
# pressure clears, exact queries admitted under saturation, no span with
# tracing off), then the backpressure benchmark — sustained updates/sec and p99 ingest latency at
# the overload knee; leaves the BENCH_overload.json artifact.
soak-overload:
	$(GO) test -race ./internal/engine/ -run 'TestChaosSoakSurgeOverload$$|TestSlowConsumerBoundedInbox' -count=1
	$(GO) test -race . -run 'TestSaturated|TestNegativeSampleRateRecordsNoSpanUnderOverload|TestFeedBoundedInFlight' -count=1
	$(GO) run ./cmd/tornado-bench -experiment overload -scale small

# Elasticity soak: migrations under sustained ingestion (value and delta
# modes), the crash-during-drain abort path, the admission stop, parked
# pendings across a repartition and forks while one waits for rest — all
# under the race detector and repeated — then the plan transitions on the
# checkpoint restart (Reshard and quarantine, engine and System level) and
# the background planner's split of a hot partition, then the elastic
# benchmark.
soak-elastic:
	$(GO) test -race ./internal/engine/ -run 'TestLiveMigration|TestMigrateRejectsConcurrent|TestScaleOutScaleIn|TestMigrationCrashAborts|TestDeltaParkedPendingSurvivesHandoff|TestRepartitionStopsAdmission|TestReshardWaitsForIngestionBacklog|TestReshardedShellsSurviveScaleOut|TestBranchWidthExact' -count=2
	$(GO) test -race ./internal/engine/ -run 'TestReshard|TestFlappingProcessorQuarantined|TestQuarantine' -count=3
	$(GO) test -race . -run 'TestSystemReshard|TestAutoScaleSplitsHotPartition' -count=3
	$(GO) run ./cmd/tornado-bench -experiment elastic -scale small

check: build vet test harness-test race fuzz-codec chaos chaos-wire bench-queries bench-throughput bench-trace bench-wire bench-delta bench-store soak-overload soak-elastic

clean:
	$(GO) clean ./...
