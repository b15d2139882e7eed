GO ?= go

# Packages whose concurrency hot paths warrant a race-detector pass on
# every check: the allocator, the OrcGC core, the manual schemes, the
# networked KV service (pipelined connections over both), and the
# lock-free metrics registry all of them report into.
RACE_PKGS = ./internal/arena/ ./internal/core/ ./internal/reclaim/ ./internal/kvstore/ ./internal/cluster/ ./internal/obs/ ./internal/torture/

.PHONY: check vet orcvet build test race race-peek cluster-guards bench bench-smoke figures-smoke serve load smoke metrics-smoke torture-smoke torture-orc torture-kv cluster-smoke overload-smoke fuzz-smoke profile-cluster clean

BIN = bin

check: vet orcvet build test race race-peek cluster-guards torture-orc torture-kv

vet:
	$(GO) vet ./...
	test -z "$$(gofmt -l .)"

# orcvet: the repo's own reclamation-discipline analyzer, run through
# the go vet driver so test files and generated cgo shims are covered.
# Any unannotated protect/escape/retire/unsafe finding fails the build;
# see DESIGN.md §10 for the rules and the //orcvet:ignore policy.
orcvet:
	$(GO) build -o $(BIN)/orcvet ./cmd/orcvet
	$(GO) vet -vettool=$(BIN)/orcvet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -count=1 $(RACE_PKGS)

# The speculative-read tests of the OrcGC Michael list and hash map under
# the race detector: a deterministic recycled-slot walk plus semantic
# stress (stable keys always found, absent keys never, a single-writer
# value never read going backwards) while writers recycle the nodes the
# readers walk. Only these tests: a full -race run of ds/list takes
# minutes, too slow for RACE_PKGS.
race-peek:
	$(GO) test -race -count=1 -run '^TestPeek' ./internal/ds/list/ ./internal/ds/hashmap/

# The proxy fast-path regression guards, run without the race detector
# so the AllocsPerRun assertion measures the real path (race
# instrumentation allocates): a steady-state proxied GET/PUT must not
# allocate, a dispatched SCAN or STATS must leave no goroutine waiting
# on its backend legs (and merge them right), a churned topology must
# return to its goroutine baseline, a client burst must reach each
# backend batched (lane_frames / lane_writes ≥ 4; exactly one lane
# write per burst at R=1), a timer-fired hedge must write its own frame,
# and each lane must run one goroutine, its receiver.
cluster-guards:
	$(GO) test ./internal/cluster/ -run 'TestProxySteadyState|TestProxyScanStatsNoGoroutine|TestProxyGoroutineBaseline|TestProxyBurstBatching|TestProxyBurstOneWritePerLane|TestProxyHedgeWritesWithoutReader|TestProxyOneGoroutinePerConn|TestProxyOneGoroutinePerLane|TestProxySlowClientStallsOnlyItself|TestProxyBurstAnswersInRequestOrder' -count=1 -v

# The repo's one measurement system: four workloads (ds-churn, ds-read,
# kv-mixed, proxy-read) x five subjects, the end-to-end metrics with
# spread, and the per-layer ladder; one JSON line per result. See
# benchmark/README.md. Exits non-zero if any correctness check fails.
bench:
	bash benchmark/run.sh

# CI-sized bench: every workload for 2s, no traced ladder. Fails only
# when a correctness check fails (faults, leaks, wrong answers, errors),
# and drives the proxy fast path end to end through proxy-read.
bench-smoke:
	bash benchmark/run.sh --seconds 2 --trace 0

# Every paper figure through the orcbench CLI at toy scale. Table 1's
# row makes the run exit non-zero if PTP's maximum retired-not-freed
# count exceeds t(H+1).
figures-smoke:
	$(GO) run ./cmd/orcbench -fig all -threads 1,2 -duration 20ms -keys-big 2000

# orcstore: run the KV server (RECLAIM selects the scheme) and drive it.
# The metrics endpoint comes up alongside: curl $(METRICS)/metrics.
RECLAIM ?= orcgc
ADDR    ?= 127.0.0.1:7070
METRICS ?= 127.0.0.1:7071

serve:
	$(GO) run ./cmd/kvserver -addr $(ADDR) -reclaim $(RECLAIM) -metrics $(METRICS)

load:
	$(GO) run ./cmd/kvload -addr $(ADDR) -conns 8 -duration 5s

# Quick loopback sanity run of every scheme through the real binaries:
# per scheme, a server + 1s of zipfian mixed load, then SIGINT and verify
# the drain leak check passes (kvserver exits non-zero if not, which
# fails the target).
smoke:
	$(GO) build -o bin/kvserver ./cmd/kvserver
	$(GO) build -o bin/kvload ./cmd/kvload
	for s in orcgc none hp ptb ptp ebr he ibr; do \
	  ./bin/kvserver -addr 127.0.0.1:7199 -reclaim $$s & \
	  pid=$$!; sleep 0.5; \
	  ./bin/kvload -addr 127.0.0.1:7199 -conns 4 -duration 1s -warmup 200ms \
	    -dist zipfian -theta 0.99 -keys 10000 -mix get=50,put=44,del=5,scan=1 \
	    || { kill $$pid; exit 1; }; \
	  kill -INT $$pid; wait $$pid || { echo "smoke: kvserver -reclaim $$s failed its drain"; exit 1; }; \
	done

# Observability smoke: serve with -metrics from a -race build, put load
# through, scrape /metrics once while the load runs (a gauge that races
# the hot path then fails the drain: the race detector's exit status),
# scrape /metrics (text and JSON) after it and assert the per-scheme
# reclamation gauges (a point shard's and the store's one scan index,
# labelled "skip") and op counters are present, then SIGINT and require
# a clean drain.
metrics-smoke:
	$(GO) build -race -o bin/kvserver ./cmd/kvserver
	$(GO) build -o bin/kvload ./cmd/kvload
	./bin/kvserver -addr 127.0.0.1:7199 -reclaim hp -metrics 127.0.0.1:7198 & \
	pid=$$!; sleep 1; \
	./bin/kvload -addr 127.0.0.1:7199 -conns 4 -duration 2s -warmup 200ms \
	  -dist uniform -keys 10000 & \
	lpid=$$!; sleep 1; \
	curl -fsS http://127.0.0.1:7198/metrics > /dev/null || { kill $$lpid $$pid; exit 1; }; \
	wait $$lpid || { kill $$pid; exit 1; }; \
	curl -fsS http://127.0.0.1:7198/metrics > /tmp/metrics.txt || { kill $$pid; exit 1; }; \
	curl -fsS 'http://127.0.0.1:7198/metrics?format=json' > /tmp/metrics.json || { kill $$pid; exit 1; }; \
	for key in 'reclaim/shard0/map/retired' 'reclaim/shard0/map/freed' \
	           'reclaim/shard0/map/retire_depth' 'reclaim/shard0/map/elisions' \
	           'reclaim/shard0/map/scan_freed_ratio_bp' 'reclaim/shard0/map/scan_threshold' \
	           'reclaim/skip/retired' 'kv/arena/live' \
	           'kv/arena/occupancy_bp' 'kv/server/ops/get' \
	           'kv/server/lat/get_ns' 'sampled/backlog'; do \
	  grep -q "$$key" /tmp/metrics.txt || { echo "metrics-smoke: missing $$key"; kill $$pid; exit 1; }; \
	done; \
	kill -INT $$pid; wait $$pid
	@echo "metrics-smoke: OK"

# Torture smoke: a short seeded run of every reclamation scheme ×
# data-structure subject plus the scheme-direct scan/elision subjects
# (57 subjects, including cluster failover and server overload) under
# the race detector, with one stalled reader parked
# inside the protection loop. Deterministic per seed: on any failure
# orctorture prints the reproducing command line (seed, threads, ops) to
# stderr and exits non-zero.
TORTURE_SEED ?= 1
torture-smoke:
	$(GO) run -race ./cmd/orctorture -seed $(TORTURE_SEED) -threads 4 -ops 600 -stalls 1

# OrcGC torture: every OrcGC subject (names containing "orc") over eight
# seeds with two stalled readers and longer runs than the smoke, without
# -race so the fused Load / SwapPtr traversals see realistic interleaving
# density. Each subject ends in a live == baseline leak verdict, which is
# what a missed ORC_ZERO retire would trip. Part of `make check`.
torture-orc:
	$(GO) build -o $(BIN)/orctorture ./cmd/orctorture
	subjects=$$(./$(BIN)/orctorture -list | grep orc | paste -sd, -); \
	for seed in 1 2 3 4 5 6 7 8; do \
	  ./$(BIN)/orctorture -seed $$seed -stalls 2 -ops 5000 -subjects $$subjects || exit 1; \
	done

# KV torture: every kvstore subject (one chaos subject per store scheme
# plus kv-overload) over eight seeds with two stalled readers. Each
# subject ends in the store's drain leak verdict. Part of `make check`.
torture-kv:
	$(GO) build -o $(BIN)/orctorture ./cmd/orctorture
	subjects=$$(./$(BIN)/orctorture -list | grep '^kv' | paste -sd, -); \
	for seed in 1 2 3 4 5 6 7 8; do \
	  ./$(BIN)/orctorture -seed $$seed -stalls 2 -ops 5000 -subjects $$subjects || exit 1; \
	done

# Cluster smoke: three race-built backends on distinct schemes behind
# kvproxy at R=2, one SIGKILLed and restarted empty mid-load. Asserts
# kvload sees 0 errs across the outage, the per-backend inflight
# gauges return to 0 after the drain (the cluster-side counterpart of
# metrics-smoke), and every backend — including the restarted one —
# passes its leak verdict. See scripts/cluster_smoke.sh.
cluster-smoke:
	$(GO) build -race -o bin/kvserver ./cmd/kvserver
	$(GO) build -race -o bin/kvload ./cmd/kvload
	$(GO) build -race -o bin/kvproxy ./cmd/kvproxy
	sh scripts/cluster_smoke.sh

# Overload smoke: a race-built kvserver with a small admission bound
# (2 inflight, 2 queued) under kvload at several times its capacity,
# every op carrying a -budget wire deadline. Asserts overload degrades
# to shedding (0 errs, shed > 0), accepted-op p99 stays within 3× the
# unloaded baseline, and the post-drain leak verdict passes — refused
# work leaves no retire backlog behind. See scripts/overload_smoke.sh.
overload-smoke:
	$(GO) build -race -o bin/kvserver ./cmd/kvserver
	$(GO) build -race -o bin/kvload ./cmd/kvload
	sh scripts/overload_smoke.sh

# Fuzz smoke: 10s of native fuzzing per request-decoding target, from
# the committed seed corpus (internal/kvstore/testdata/fuzz: the chaos
# subject's truncated and aborted frames plus budget-flagged variants).
# FuzzSplitBudget round-trips the budget codec; FuzzServeRequest feeds
# arbitrary payloads through the server's per-request path and requires
# one well-formed response frame each; FuzzServerConn feeds an arbitrary
# byte stream through one connection's read/execute/flush loop and
# requires it to exit on EOF with one well-formed response per whole
# frame. FuzzProxyConn holds kvproxy's client connection loop to the
# same oracle, over stub backends. go test -fuzz takes one target per
# run.
fuzz-smoke:
	$(GO) test ./internal/kvstore/ -run '^$$' -fuzz '^FuzzSplitBudget$$' -fuzztime 10s
	$(GO) test ./internal/kvstore/ -run '^$$' -fuzz '^FuzzServeRequest$$' -fuzztime 10s
	$(GO) test ./internal/kvstore/ -run '^$$' -fuzz '^FuzzServerConn$$' -fuzztime 10s
	$(GO) test ./internal/cluster/ -run '^$$' -fuzz '^FuzzProxyConn$$' -fuzztime 10s

# Capture a 10s CPU profile of kvproxy under load (bin/kvproxy +
# /debug/pprof via -pprof); see scripts/profile_cluster.sh.
profile-cluster:
	$(GO) build -o bin/kvserver ./cmd/kvserver
	$(GO) build -o bin/kvload ./cmd/kvload
	$(GO) build -o bin/kvproxy ./cmd/kvproxy
	sh scripts/profile_cluster.sh

clean:
	$(GO) clean ./...
	rm -rf bin
