# Development entry points.  CI mirrors the targets `ci` lists; bench-ab,
# the performance gate, takes about 30 minutes and is run by hand.

GO ?= go

.PHONY: build test race vet fmt-check loc lint escape-check bench-build microbench-smoke bench bench-ab sim-smoke load-smoke cluster-throughput-smoke cluster-smoke cluster-chaos-smoke obs-smoke fuzz-smoke ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# gofmt over every tracked Go file (perfbench included; the untracked
# .bench_build/ is not): fails listing each file gofmt would rewrite.
fmt-check:
	@out=$$(gofmt -l $$(git ls-files '*.go')) || exit 1; \
	if [ -n "$$out" ]; then echo "fmt-check: gofmt would rewrite:" >&2; echo "$$out" >&2; exit 1; fi

# Non-test Go lines, the size measure simplicity changes report: tracked
# *.go files other than _test.go, outside perfbench/ and every testdata/,
# counting neither blank lines nor lines holding only a // comment.
loc:
	@git ls-files '*.go' ':!:*_test.go' ':!:perfbench/*' ':!:testdata/*' ':!:*/testdata/*' \
		| xargs grep -Ehv '^[[:space:]]*(//.*)?$$' | wc -l

# Project analyzer suite (cmd/hovet): hotpath allocation audit,
# determinism, lock-safety and wire codec pairing, driven by //fuzzyho:
# annotations.  Always run over ./... — subset patterns would skip the
# fact-exporting dependency packages and blind the transitive checks.
lint:
	$(GO) run ./cmd/hovet ./...

# Compile hotpath-annotated packages with -m=1 and diff heap escapes in
# hotpath functions against the committed baseline; any new escape fails.
escape-check:
	$(GO) run ./cmd/hovet -escape -baseline escape_baseline.txt ./...

# perfbench is its own Go module, so ./... above never compiles it: vet
# and build it here, so an API change it depends on fails the pipeline.
bench-build:
	cd perfbench && $(GO) vet ./... && $(GO) build -o /dev/null .

# Every fast-path, frame-scoring, serve and cluster micro-benchmark body,
# 100 iterations each: catches a benchmark that no longer builds its
# fixture or fails mid-loop.  It measures nothing.
microbench-smoke:
	$(GO) test -run='^$$' -bench=BenchmarkEvaluate -benchtime=100x -benchmem .
	$(GO) test -run='^$$' -bench=BenchmarkScoreFrame -benchtime=100x -benchmem ./internal/handover
	$(GO) test -run='^$$' -bench=BenchmarkServe -benchtime=100x -benchmem ./internal/serve
	$(GO) test -run='^$$' -bench=BenchmarkCluster -benchtime=100x -benchmem ./internal/cluster

# Full benchmark/reproduction record (slow).
bench:
	$(GO) test -run='^$$' -bench=. -benchmem .

# The performance gate: BASE against the working tree on BENCHMARK.json's
# benchmark, 10 seed-paired runs per side and workload, alternating which
# side goes first.  Prints each end-to-end metric's medians, quartiles,
# pairs won and verdict, then PASS or FAIL.  About 30 minutes on a 2-vCPU
# box, so it is run by hand, not by ci.
bench-ab:
	@test -n "$(BASE)" || { echo "usage: make bench-ab BASE=<rev>" >&2; exit 2; }
	$(GO) run ./cmd/hobench $(BASE)

# End-to-end runs of the simulator CLI on the paper's two resolved walks,
# for every fuzzy configuration (algo:crossing:boundary handover counts),
# exact and compiled: each must print its count with no ping-pong.  A
# baseline given -compiled must be rejected.
SIM_SMOKE = fuzzy:3:0 adaptive:3:0 trendfuzzy:3:1

sim-smoke:
	$(GO) build -o /tmp/fuzzyho-hosim ./cmd/hosim
	@for spec in $(SIM_SMOKE); do \
		algo=$${spec%%:*}; counts=$${spec#*:}; \
		for mode in "" -compiled; do \
			for run in crossing:$${counts%%:*} boundary:$${counts#*:}; do \
				sc=$${run%%:*}; want="handovers: $${run#*:} (ping-pong 0),"; \
				out=$$(/tmp/fuzzyho-hosim -algo $$algo $$mode -scenario $$sc) || exit 1; \
				echo "$$out" | grep -q "^$$want" || \
					{ echo "sim-smoke: -algo $$algo $$mode -scenario $$sc: want \"$$want\"" >&2; echo "$$out" >&2; exit 1; }; \
				echo "sim-smoke: -algo $$algo $$mode -scenario $$sc: $$want"; \
			done; \
		done; \
	done
	@! /tmp/fuzzyho-hosim -algo hysteresis -compiled -scenario crossing >/dev/null 2>&1 || \
		{ echo "sim-smoke: -algo hysteresis -compiled was accepted" >&2; exit 1; }

# Short end-to-end load runs through the serve engine, one per decision
# mode (exact, compiled, speed-adaptive, SSN-trend).  The first also
# writes the -metrics-out series and checks it holds a throughput sample.
load-smoke:
	rm -f /tmp/fuzzyho-load-series.jsonl
	$(GO) run ./cmd/hoload -terminals 256 -shards 4 -duration 500ms -replicas 2 -speeds 0,30 \
		-metrics-out /tmp/fuzzyho-load-series.jsonl
	grep -q '"decisions_per_sec"' /tmp/fuzzyho-load-series.jsonl
	$(GO) run ./cmd/hoload -terminals 256 -shards 4 -duration 500ms -replicas 2 -speeds 0,30 -compiled
	$(GO) run ./cmd/hoload -terminals 256 -shards 4 -duration 500ms -replicas 2 -speeds 0,30,50 -algo adaptive -compiled
	$(GO) run ./cmd/hoload -terminals 256 -shards 4 -duration 500ms -replicas 2 -speeds 0,30,50 -algo trendfuzzy -compiled

# In-process cluster routing against a single node: the same 1 s
# compiled hoload run through a 2-node cluster.Local and through one
# engine.  On a multi-core runner the cluster must sustain at least a
# single node's throughput, less 20% headroom for runner noise.  An
# unmeasured cluster leg runs first: on a box that was idle, the first
# leg reads low, and the measured cluster leg would be that leg.
cluster-throughput-smoke:
	$(GO) build -o /tmp/fuzzyho-hoload ./cmd/hoload
	sh -ec '\
		/tmp/fuzzyho-hoload -terminals 256 -shards 2 -cluster 2 -duration 1s -replicas 2 -speeds 0,30 -compiled \
			>/dev/null; \
		/tmp/fuzzyho-hoload -terminals 256 -shards 2 -cluster 2 -duration 1s -replicas 2 -speeds 0,30 -compiled \
			>/tmp/fuzzyho-cluster.out; \
		cat /tmp/fuzzyho-cluster.out; \
		/tmp/fuzzyho-hoload -terminals 256 -shards 2 -duration 1s -replicas 2 -speeds 0,30 -compiled \
			>/tmp/fuzzyho-single.out; \
		cat /tmp/fuzzyho-single.out; \
		CL=$$(grep -o "throughput  [0-9]*" /tmp/fuzzyho-cluster.out | grep -o "[0-9]*"); \
		SG=$$(grep -o "throughput  [0-9]*" /tmp/fuzzyho-single.out | grep -o "[0-9]*"); \
		echo "cluster=$$CL single=$$SG"; \
		test "$$CL" -ge $$((SG * 80 / 100))'

# Short end-to-end run through the multi-node cluster router: in-process
# replay, then the full TCP wire path (2 hoserve daemons + hocluster).
# The wire leg runs in one shell with an EXIT trap so the background
# daemons are killed even when a step fails mid-way.
cluster-smoke:
	$(GO) run ./cmd/hoload -terminals 256 -shards 2 -cluster 2 -duration 500ms -replicas 2 -speeds 0,30 -compiled
	$(GO) build -o /tmp/fuzzyho-hoserve ./cmd/hoserve
	$(GO) build -o /tmp/fuzzyho-hocluster ./cmd/hocluster
	sh -ec '\
		/tmp/fuzzyho-hoserve -listen 127.0.0.1:7191 -compiled & N1=$$!; \
		/tmp/fuzzyho-hoserve -listen 127.0.0.1:7192 -compiled & N2=$$!; \
		trap "kill $$N1 $$N2 2>/dev/null || true" EXIT; \
		sleep 1; \
		printf "%s\n%s\n" \
			"{\"terminal\":1,\"serving\":[0,0],\"neighbor\":[1,0],\"serving_db\":-88.5,\"ssn_db\":-84.0,\"cssp_db\":-2.5,\"dmb\":1.1,\"walked_km\":3.2,\"speed_kmh\":30}" \
			"{\"terminal\":2,\"serving\":[0,0],\"neighbor\":[1,0],\"serving_db\":-90,\"ssn_db\":-83.0,\"cssp_db\":-1.5,\"dmb\":1.0,\"walked_km\":1.2,\"speed_kmh\":10}" \
			| /tmp/fuzzyho-hocluster -nodes 127.0.0.1:7191,127.0.0.1:7192'

# Race-enabled membership chaos: leave/join mid-replay on both
# transports (state migrating in-process and over the wire), kill/restart
# of a TCP node, the ROUTER itself killed mid-migration and restarted
# from its intent journal, submissions overlapping an in-flight
# migration on both transports, copy-before-release at every migration
# phase, membership ops over the wire control plane, the
# reconnect-vs-drain takeover regression, and the hoload -churn path
# growing and shrinking an in-process cluster under live load.  Asserts
# zero lost terminal state and byte-identical decision sequences.  The
# shell leg then drives the operator surface end to end: runtime
# addnode/removenode through the admin HTTP endpoints, kill -9 of the
# router, and a restart on the same journal recovering the changed
# membership.
#
# `go test -run` passes silently when an alternative matches nothing, so
# every listed package:test must first appear in `go test -list`.
CHAOS_TESTS = cluster:TestMembershipEquivalence cluster:TestTCPNodeKillRestartRecovers \
	cluster:TestTCPRouterKillRestartResumesFromJournal cluster:TestMigrationOverlapsSubmissions \
	cluster:TestLocalCopyBeforeRelease cluster:TestDaemonMembershipCtlOps \
	serve:TestBindingTakeoverByIdentity serve:TestNodeClientIdentityTakeover
empty :=
space := $(empty) $(empty)

cluster-chaos-smoke:
	@for spec in $(CHAOS_TESTS); do \
		pkg=./internal/$${spec%%:*}; t=$${spec#*:}; \
		$(GO) test -list "^$$t$$" $$pkg | grep -qx "$$t" || \
			{ echo "cluster-chaos-smoke: $$t is not a test in $$pkg" >&2; exit 1; }; \
	done
	$(GO) test -race -count=1 \
		-run '^($(subst $(space),|,$(notdir $(subst :,/,$(CHAOS_TESTS)))))$$' \
		./internal/cluster ./internal/serve
	$(GO) run -race ./cmd/hoload -terminals 256 -shards 2 -cluster 2 -duration 1s -churn 250ms -replicas 2 -speeds 0,30 -compiled
	$(GO) build -o /tmp/fuzzyho-hoserve ./cmd/hoserve
	$(GO) build -o /tmp/fuzzyho-hocluster ./cmd/hocluster
	sh -ec '\
		rm -f /tmp/fuzzyho-chaos-journal.jsonl; \
		/tmp/fuzzyho-hoserve -listen 127.0.0.1:7291 -compiled & N1=$$!; \
		/tmp/fuzzyho-hoserve -listen 127.0.0.1:7292 -compiled & N2=$$!; \
		/tmp/fuzzyho-hoserve -listen 127.0.0.1:7293 -compiled & N3=$$!; \
		trap "kill $$N1 $$N2 $$N3 2>/dev/null || true" EXIT; \
		sleep 1; \
		/tmp/fuzzyho-hocluster -nodes 127.0.0.1:7291,127.0.0.1:7292 \
			-journal /tmp/fuzzyho-chaos-journal.jsonl \
			-listen 127.0.0.1:7290 -admin 127.0.0.1:7294 & RTR=$$!; \
		trap "kill $$N1 $$N2 $$N3 $$RTR 2>/dev/null || true" EXIT; \
		sleep 1; \
		curl -fsS -X POST "http://127.0.0.1:7294/admin/addnode?addr=127.0.0.1:7293" \
			| grep -q "\"node\": 2"; \
		curl -fsS -X POST "http://127.0.0.1:7294/admin/removenode?node=0" \
			| grep -q "\"ok\": true"; \
		kill -9 $$RTR; sleep 1; \
		/tmp/fuzzyho-hocluster -nodes 127.0.0.1:7291,127.0.0.1:7292 \
			-journal /tmp/fuzzyho-chaos-journal.jsonl \
			-listen 127.0.0.1:7290 -admin 127.0.0.1:7294 & RTR=$$!; \
		trap "kill $$N1 $$N2 $$N3 $$RTR 2>/dev/null || true" EXIT; \
		sleep 1; \
		curl -fsS http://127.0.0.1:7294/statusz >/tmp/fuzzyho-chaos-statusz.json; \
		grep -q "\"Addr\": \"127.0.0.1:7293\"" /tmp/fuzzyho-chaos-statusz.json; \
		! grep -q "\"Addr\": \"127.0.0.1:7291\"" /tmp/fuzzyho-chaos-statusz.json'

# End-to-end scrape of the admin plane: boot hoserve with -admin and
# decision tracing, feed it reports, then assert /healthz answers,
# /metrics carries a non-zero serve_decisions_total, /statusz reports
# the engine and claim table, and /tracez captured a sampled decision.
# Same one-shell EXIT-trap pattern as cluster-smoke.
obs-smoke:
	$(GO) build -o /tmp/fuzzyho-hoserve ./cmd/hoserve
	sh -ec '\
		{ printf "%s\n%s\n" \
			"{\"terminal\":1,\"serving\":[0,0],\"neighbor\":[1,0],\"serving_db\":-88.5,\"ssn_db\":-84.0,\"cssp_db\":-2.5,\"dmb\":1.1,\"walked_km\":3.2,\"speed_kmh\":30}" \
			"{\"terminal\":2,\"serving\":[0,0],\"neighbor\":[1,0],\"serving_db\":-90,\"ssn_db\":-83.0,\"cssp_db\":-1.5,\"dmb\":1.0,\"walked_km\":1.2,\"speed_kmh\":10}"; \
		  sleep 6; } \
			| /tmp/fuzzyho-hoserve -admin 127.0.0.1:9193 -trace-every 1 -compiled \
				>/dev/null & SRV=$$!; \
		trap "kill $$SRV 2>/dev/null || true" EXIT; \
		sleep 2; \
		curl -fsS http://127.0.0.1:9193/healthz | grep -q ok; \
		curl -fsS http://127.0.0.1:9193/metrics >/tmp/obs-smoke-metrics.txt; \
		grep -q "^serve_decisions_total [1-9]" /tmp/obs-smoke-metrics.txt; \
		grep -q "^serve_batch_service_ns_count" /tmp/obs-smoke-metrics.txt; \
		curl -fsS http://127.0.0.1:9193/statusz | grep -q "\"Decisions\""; \
		curl -fsS http://127.0.0.1:9193/tracez | grep -q "\"sampled\""'

# Native Go fuzzing of the wire, snapshot and control-plane codecs and of
# the compiled kernel, briefly; CI's fuzz step runs this target.
# FuzzParseBatchLine and FuzzParseOutcomeLine are differential against the
# encoding/json oracle, FuzzCompiledKernel against the per-combo oracle
# and the exact inference path.
# The coordinator minimizes every new-coverage input for up to
# -fuzzminimizetime (60s by default), which could spend a target's whole
# 20s on one input; FUZZ_FLAGS bounds it.  A crasher still fails the run,
# only its saved input is less minimized.
FUZZ_FLAGS = -fuzztime 20s -fuzzminimizetime 2s
fuzz-smoke:
	$(GO) test ./internal/serve -run '^$$' -fuzz FuzzParseBatchLine $(FUZZ_FLAGS)
	$(GO) test ./internal/serve -run '^$$' -fuzz FuzzParseOutcomeLine $(FUZZ_FLAGS)
	$(GO) test ./internal/serve -run '^$$' -fuzz FuzzOutcomeRoundTrip $(FUZZ_FLAGS)
	$(GO) test ./internal/serve -run '^$$' -fuzz FuzzSnapshotRoundTrip $(FUZZ_FLAGS)
	$(GO) test ./internal/serve -run '^$$' -fuzz FuzzParseControlLine $(FUZZ_FLAGS)
	$(GO) test ./internal/fuzzy -run '^$$' -fuzz FuzzCompiledKernel $(FUZZ_FLAGS)

ci: vet fmt-check lint escape-check build bench-build test microbench-smoke race sim-smoke load-smoke cluster-throughput-smoke cluster-smoke cluster-chaos-smoke obs-smoke fuzz-smoke
