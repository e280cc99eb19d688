# The same commands CI runs (.github/workflows/ci.yml), for humans.
# `make ci` is the single source of truth: every gate the workflow
# enforces is a target here, and the workflow only calls make.

GO ?= go

.PHONY: all build test race bench bench-smoke bench-json bench-trajectory \
	cross-checks fuzz-smoke recovery-smoke obs-smoke perfbench-check \
	govulncheck staticcheck fmt fmt-check vet ci

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Full benchmark pass (real measurements).
bench:
	$(GO) test -bench . -benchmem ./...

# One parameterized load-generator invocation shared by every smoke run
# (the flags were previously duplicated and drifting between lines).
BENCH_LOAD_FLAGS ?= -load -clients 2 -duration 1s -nodes 300 -edges 1200 -class mixed

# One-iteration smoke run: proves every benchmark still compiles and runs,
# plus short load-generator iterations — edge churn, node-op churn with a
# forced live rebalance (also exercising the JSON report path), and one
# straggler site so early-terminated rounds run — against an in-process
# deployment.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...
	$(GO) run ./cmd/bench $(BENCH_LOAD_FLAGS) -churn 5
	$(GO) run ./cmd/bench $(BENCH_LOAD_FLAGS) -churn 20 -nodechurn -rebalance 300ms -json /tmp/bench-smoke.json
	$(GO) run ./cmd/bench $(BENCH_LOAD_FLAGS) -churn 20 -index -json /tmp/bench-smoke-index.json
	$(GO) run ./cmd/bench $(BENCH_LOAD_FLAGS) -sitedelay 0,0,0,20ms -json /tmp/bench-smoke-anytime.json
	$(MAKE) obs-smoke

# Observability smoke: boot the built binaries (self-contained gateway,
# then k real cmd/site processes with -metrics), drive query and update
# load over HTTP, and fail on malformed Prometheus exposition, a missing
# trace tree, or any guarantee-auditor violation. See cmd/obscheck.
obs-smoke:
	$(GO) build -o /tmp/distreach-smoke-serve ./cmd/serve
	$(GO) build -o /tmp/distreach-smoke-site ./cmd/site
	$(GO) run ./cmd/obscheck -serve /tmp/distreach-smoke-serve -site /tmp/distreach-smoke-site

# The pinned bench-trajectory run: open loop on the checked-in SNAP sample
# at a fixed offered rate, seed and duration, with the reachability index
# enabled, emitting a
# schema-versioned report. This exact configuration produced the committed
# BENCH_PR9.json baseline; refresh it with
# `make bench-json BENCH_JSON_OUT=BENCH_PR9.json`.
BENCH_TRAJECTORY_FLAGS ?= -load -rate 200 -arrival poisson -duration 5s -clients 4 \
	-churn 10 -seed 6 -snap internal/graph/testdata/p2p-sample.txt -index
BENCH_JSON_OUT ?= BENCH.json

bench-json:
	$(GO) run ./cmd/bench $(BENCH_TRAJECTORY_FLAGS) -json $(BENCH_JSON_OUT)

# What CI's bench-trajectory job runs: measure, then gate against the
# committed baseline (>20% throughput drop or >50% p99 growth fails; see
# cmd/benchcheck for the override when a regression is intentional).
bench-trajectory:
	$(MAKE) bench-json BENCH_JSON_OUT=BENCH_PR.json
	$(GO) run ./cmd/benchcheck -baseline BENCH_PR9.json -current BENCH_PR.json

# Short fuzzing pass over the wire, durability and dataset codecs (one
# target per invocation: the Go fuzzer requires exactly one -fuzz match).
fuzz-smoke:
	$(GO) test ./internal/netsite -run '^$$' -fuzz '^FuzzDecodeFrame$$' -fuzztime 20s
	$(GO) test ./internal/netsite -run '^$$' -fuzz '^FuzzBatchPayload$$' -fuzztime 20s
	$(GO) test ./internal/netsite -run '^$$' -fuzz '^FuzzAnytimePayload$$' -fuzztime 20s
	$(GO) test ./internal/netsite -run '^$$' -fuzz '^FuzzUpdatePayload$$' -fuzztime 20s
	$(GO) test ./internal/netsite -run '^$$' -fuzz '^FuzzRebalancePayload$$' -fuzztime 20s
	$(GO) test ./internal/netsite -run '^$$' -fuzz '^FuzzSyncPayload$$' -fuzztime 20s
	$(GO) test ./internal/netsite -run '^$$' -fuzz '^FuzzTracePayload$$' -fuzztime 20s
	$(GO) test ./internal/oplog -run '^$$' -fuzz '^FuzzOpsCodec$$' -fuzztime 20s
	$(GO) test ./internal/oplog -run '^$$' -fuzz '^FuzzSegmentScan$$' -fuzztime 20s
	$(GO) test ./internal/graph -run '^$$' -fuzz '^FuzzSNAPLoader$$' -fuzztime 20s
	$(GO) test ./internal/reachindex -run '^$$' -fuzz '^FuzzIndexLabels$$' -fuzztime 20s

# Crash-recovery acceptance pass (race-enabled): kill-and-restart catch-up
# over 50 randomized graphs, two concurrent gateways under one sequencer,
# snapshot-fallback catch-up, durable-sequencer restart resumption, and the
# gateway's WAL boot recovery.
recovery-smoke:
	$(GO) test -race -count 1 \
		-run 'TestSiteCatchUpAfterRestart|TestTwoGatewaysConverge|TestSyncSnapshotFallback' ./internal/netsite
	$(GO) test -race -count 1 \
		-run 'TestSequencerResumesAfterRestart|TestStoreRecover|TestLogTornTailTruncated' ./internal/oplog
	$(GO) test -race -count 1 \
		-run 'TestGatewayDurabilityStats|TestGatewayRecoversDeploymentFromWAL' ./cmd/serve

# The wire/simulation cross-checks CI pins with -count 1 (they are part of
# `make race` too; the explicit run guards against cached passes).
cross-checks:
	$(GO) test -race -run 'TestBatchWireCrossCheck|TestBatchLifecycleNoLeak' -count 1 ./internal/netsite
	$(GO) test -race -run 'TestAnytimeCrossCheck|TestAnytimePendingNoLeak|TestOneFramePerSitePerRound' -count 1 ./internal/netsite
	$(GO) test -race -run 'TestUpdateWireCrossCheck|TestUpdateConcurrentWithQueries' -count 1 ./internal/netsite
	$(GO) test -race -run 'TestIndexChurnCrossCheck|TestFragmentIndexMatchesDirect' -count 1 ./internal/netsite ./internal/core
	$(GO) test -cpu 1,2,4 -count 1 ./internal/reachindex
	$(GO) test -race -run 'TestIndexAnswersUnderChurnAndRebalance' -count 1 ./internal/fragment
	$(GO) test -race -run 'TestGroupCommitCoalesces|TestSnapshotIndex|TestSnapshotRecoverWarm' -count 1 ./internal/oplog
	$(GO) test -race -run 'TestNodeOpsWireCrossCheck|TestNodeMutationCrossCheck|TestRebalanceEpochRace|TestRebalanceRestoresBalance' -count 1 ./internal/netsite ./internal/fragment
	$(GO) test -race -run 'TestTraceCrossCheck|TestWireAccounting' -count 1 ./internal/netsite

# The benchmark harness is its own module (perfbench/go.mod), so the root
# `go test ./...` never builds it: vet and test it here, so an API change
# that breaks the benchmark fails CI.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Static analysis beyond go vet. Downloads the tool on first run.
staticcheck:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@2025.1.1 ./...

# Known-vulnerability scan against the Go vuln DB. Downloads the scanner
# on first run and needs network for the DB, so it is its own target (and
# CI job) rather than part of the offline-friendly gates.
govulncheck:
	$(GO) run golang.org/x/vuln/cmd/govulncheck@v1.1.4 ./...

fmt:
	gofmt -w .

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

ci: build vet fmt-check race cross-checks recovery-smoke bench-smoke perfbench-check staticcheck fuzz-smoke
