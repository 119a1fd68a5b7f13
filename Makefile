# Tornado build and verify targets. `make check` is the documented verify
# loop (README "Testing"): build, vet, full tests, then the data-race pass
# over the concurrency-heavy observability and metrics packages.

GO ?= go

.PHONY: all build test race race-all vet bench bench-engine profile-ingest harness-test bench-queries bench-throughput bench-trace bench-wire bench-delta bench-store bench-elastic benchmark fuzz-store fuzz-codec soak-overload soak-elastic chaos chaos-wire check clean

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The obs registry/tracer and metrics primitives are hammered concurrently,
# and the MVCC store's writers mutate in place whatever no snapshot handle can
# reach while handle readers take no lock (TestInPlaceWritersVsHandles); keep
# them honest under the race detector on every change. The feed's pump and its
# hand-off at the admission gate are raced 20 times over (the retired
# ingestion topology hung there under -race).
race:
	$(GO) test -race ./internal/obs/... ./internal/metrics/... ./internal/storage/...
	$(GO) test -race -count=20 -run 'TestAttachSource|TestFeed' .

race-all:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Crash-recovery and chaos suite under the race detector: true crash
# semantics, supervised checkpoint restart, quarantine, fault plans and the
# seeded chaos soak (crashes + lossy transport in one run). The $-anchored
# soak names keep the wire variants out — those run in chaos-wire.
chaos:
	$(GO) test -race ./internal/engine/ -run 'TestCrash|TestSupervisor|TestFlapping|TestFaultPlan|TestChaosSoakRecovery$$|TestChaosSoakSurgeOverload$$|TestDeltaChaosSoakRecovery$$'

# Wire-layer chaos under the race detector: codec/supervision/fault-conn
# unit tests and the fuzz-regression corpus, goroutine-leak checks, the
# multi-process SSSP cluster (real worker processes over real sockets, with
# and without socket-level chaos), the hermetic wire-mode engine tests, and
# both chaos soaks re-run with the message plane on the TCP loopback wire.
chaos-wire:
	$(GO) test -race -count=1 ./internal/transport/ ./internal/wirenode/
	$(GO) test -race -count=1 -timeout 15m ./internal/engine/ -run 'TestWireMode|TestChaosSoakRecoveryWire|TestChaosSoakSurgeOverloadWire'

bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./...

# The protocol's inner loop, in-tree: end-to-end ingestion on the MVCC default
# (MemStore as the labelled control), one commit in isolation, what one more
# producer costs a hub consumer, and the message plane alone (ns and allocs per
# delivered message, processor to processor and to itself).
bench-engine:
	$(GO) test -run '^$$' -bench 'BenchmarkEngineIngestSSSP$$' -benchmem -count 5 .
	$(GO) test -run '^$$' -bench 'BenchmarkProcessorCommit$$|BenchmarkHubInDegree$$|BenchmarkMessageHop$$' -benchmem -count 5 ./internal/engine/

# One traced sssp_churn_mem pass of the BENCHMARK.json harness, then the share
# of its cpu.pprof samples whose stack passes through the runtime's map
# functions (all of them, and without the harness's own host-speed job and the
# programs' state maps, which leaves the protocol's), the store, the
# per-message searches of a vertex's edge records, sync.(*Mutex) (split into
# the store's writer lock and every other lock — the tracker's is the largest
# of the rest), the input journal, boxing into interfaces (runtime.convT*)
# and the transport's per-payload entry points.
pprof_share = $(GO) tool pprof -top -nodecount=100000 -nodefraction=0 $(1) .bench_build/out/sssp_churn_mem/cpu.pprof 2>/dev/null | sed -n 's/^Showing nodes accounting for [^,]*, \([0-9.]*%\) of .*/\1/p'
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
	@echo "runtime.convT*:         $$($(call pprof_share,-focus='runtime\.convT'))"
	@echo "Endpoint.Send|deliver:  $$($(call pprof_share,-focus='transport\.\(\*Endpoint\)\.(Send|deliver)$$'))"

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

# MVCC storage benchmark (small scale): snapshot-fork latency vs a MemStore
# consistent view at 1k/10k/100k vertices, then a put/flush/fork churn soak
# with background compaction; leaves the BENCH_store.json artifact and exits
# nonzero if forks stop being O(1) (>= 10x over MemStore at 100k, flat in
# vertex count) or live versions / post-GC heap grow instead of plateauing.
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

# Short randomized-op fuzz pass over the MVCC store against the MemStore
# reference (the seed corpus plus 30s of new inputs).
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
# detector (bounded inboxes, credit stalls, recovery mid-surge), then the
# backpressure benchmark — sustained updates/sec and p99 ingest latency at
# the overload knee; leaves the BENCH_overload.json artifact.
soak-overload:
	$(GO) test -race ./internal/engine/ -run 'TestChaosSoakSurgeOverload$$|TestSlowConsumerBoundedInbox' -count=1
	$(GO) test -race . -run 'TestOverloadControllerLadder|TestFeedBoundedInFlight' -count=1
	$(GO) run ./cmd/tornado-bench -experiment overload -scale small

# Elasticity soak: live migration under sustained ingestion (value and delta
# modes), the crash-mid-migration abort path, and the parked-pending
# hand-off — all under the race detector and repeated — then the elastic
# benchmark.
soak-elastic:
	$(GO) test -race ./internal/engine/ -run 'TestLiveMigration|TestScaleOutScaleIn|TestMigrationCrashAborts|TestDeltaParkedPendingSurvivesHandoff|TestReshardRejectsActiveIngestion' -count=2
	$(GO) run ./cmd/tornado-bench -experiment elastic -scale small

check: build vet test harness-test race fuzz-codec chaos chaos-wire bench-queries bench-throughput bench-trace bench-wire bench-delta bench-store soak-overload soak-elastic

clean:
	$(GO) clean ./...
