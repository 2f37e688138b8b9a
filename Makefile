# Komodo-Go build/test/evaluation entry points. Everything is plain `go`
# commands; this file just names the common workflows.

GO ?= go

.PHONY: all build test race verify bench bench-quick bench-json bench-smoke bench-baseline bench-baseline-check examples loc fmt vet clean serve serve-smoke ckpt-smoke obs-smoke gateway-smoke batch-smoke replay-smoke writepath-smoke

all: build vet test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The "proof run": PageDB invariants, refinement, noninterference.
verify:
	$(GO) run ./cmd/komodo-verify

# Regenerate the paper's full evaluation (Tables 2 & 3, SGX comparison,
# ablation, Figure 5).
bench:
	$(GO) run ./cmd/komodo-bench

# The same through the go benchmark harness.
bench-quick:
	$(GO) test -bench . -benchmem -benchtime 1x .

# Machine-readable evaluation (BENCH_*.json tracking, result diffing).
bench-json:
	$(GO) run ./cmd/komodo-bench -json

# CI guard: every benchmark compiles and runs once, and the hot-path perf
# section (block cache + delta restore) completes end-to-end. Not a
# measurement — shared runners are too noisy — just an execution check.
# The block A/B benchmark and the block differential harness also run under
# the race detector: the superblock cache must stay bit-identical there too.
# BenchmarkRebase runs both rebase paths of the durable write path
# (incremental fold and full snapshot) once each, and once more for a
# fixed time, which must end in about that time; BenchmarkCheckpoint and
# the sha2 benchmarks run the seal on the platform SHA-256 engine.
# BenchmarkCheckpointStoreSave runs the durable Save of a real checkpoint
# with fsync and with a no-op sync (encode + write alone), and
# BenchmarkDurableSign one unbatched durable sign through the server's
# ServeHTTP, so -benchmem shows what a sign allocates. BenchmarkBoot
# boots a two-worker serving pool, BenchmarkStartRecording runs one notary
# sign bare and under the replay recorder (the difference is the
# recorder's own cost per request), and BenchmarkDigest/BenchmarkExportPages
# walk a sparse default-layout memory; -benchmem prints what each allocates.
bench-smoke:
	$(GO) test -run XXX -bench . -benchtime 1x .
	$(GO) test -race -run XXX -bench BenchmarkInterpreter -benchtime 1x .
	$(GO) test -race -run 'TestBlockDifferential|FuzzBlockCache' ./internal/arm/
	$(GO) test -run XXX -bench 'BenchmarkRebase|BenchmarkCheckpoint' -benchtime 1x ./komodo/
	$(GO) test -run XXX -bench BenchmarkRebase -benchtime 200ms -timeout 60s ./komodo/
	$(GO) test -run XXX -bench . -benchtime 1x ./internal/sha2/
	$(GO) test -run XXX -bench 'BenchmarkCheckpointStoreSave|BenchmarkDurableSign|BenchmarkBoot|BenchmarkStartRecording' -benchmem -benchtime 1x ./internal/server/
	$(GO) test -run XXX -bench 'BenchmarkDigest|BenchmarkExportPages' -benchmem -benchtime 1x ./internal/mem/
	$(GO) test -run XXX -bench BenchmarkTracedRequest -benchmem -benchtime 1000x ./internal/obs/
	$(GO) run ./cmd/komodo-bench -perf -perf-requests 16

# Regenerate the committed perf baseline for this PR sequence number.
BENCH_N ?= 6
bench-baseline:
	$(GO) run ./cmd/komodo-bench -json > BENCH_$(BENCH_N).json

# The serving layer (docs/SERVING.md): warm-pool attestation/notary HTTP
# service.
serve:
	$(GO) run ./cmd/komodo-serve

serve-smoke:
	sh scripts/serve_smoke.sh

# Sealed-checkpoint durability (docs/SEALING.md): kill the server,
# restart on the same state dir, require strictly monotonic counters.
ckpt-smoke:
	sh scripts/ckpt_smoke.sh

# Observability surface (docs/OBSERVABILITY.md): traced requests land in
# the flight recorder, komodo-trace renders them, /metrics exposes every
# expected Prometheus family.
obs-smoke:
	sh scripts/obs_smoke.sh

# Fleet front (docs/GATEWAY.md): two backends behind komodo-gateway, all
# race-instrumented; verify quotes through the proxy, kill a backend
# mid-load (zero non-retryable errors, zero duplicated counters), then
# live-migrate sealed notary state and require strict monotonicity.
gateway-smoke:
	sh scripts/gateway_smoke.sh

# Batched signing + tenant admission (docs/BATCHING.md): race-built
# server, mixed-tenant load, offline receipt verification, classified
# rejections with Retry-After, queue-pressure shedding, zero duplicated
# counter ticks.
batch-smoke:
	sh scripts/batch_smoke.sh

# Deterministic record/replay + machine monitor (docs/REPLAY.md): serve
# under -race with recording on, replay the slowest request offline
# bit-identically, navigate it with komodo-mon, freeze-the-world a live
# worker mid-enclave, and check the komodo_replay_* metric flow.
replay-smoke:
	sh scripts/replay_smoke.sh

# Adaptive write path (docs/BATCHING.md §Adaptive write path): race-built
# serve with dynamic K + dedup + group commit under Zipf-skewed load;
# receipts verify offline, K moves off its floor, dedup coalesces, the
# fsync rate amortises, and counters stay monotonic across SIGTERM +
# restart.
writepath-smoke:
	sh scripts/writepath_smoke.sh

# Docs/baseline drift guard: every BENCH_*.json referenced from
# docs/PERFORMANCE.md or EXPERIMENTS.md must exist in the tree.
bench-baseline-check:
	sh scripts/bench_baseline_check.sh

examples:
	@for ex in quickstart notary attestation dynamicmem maliciousos vault selfpaging remoteattest swap; do \
		echo "=== $$ex ==="; \
		$(GO) run ./examples/$$ex || exit 1; \
	done

# Non-test Go lines of the tracked tree (the figure each change reports in
# CHANGES.md), then the paper's Table 2 breakdown by role and the trusted
# core's non-test lines, counted the same way as the first figure.
loc:
	@printf 'non-test Go lines: '; git ls-files '*.go' | grep -v '_test\.go$$' | xargs cat | wc -l
	$(GO) run ./cmd/komodo-loc

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

clean:
	$(GO) clean ./...
	rm -f test_output.txt bench_output.txt
