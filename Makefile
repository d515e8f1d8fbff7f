# Convenience targets; everything is plain `go` underneath.

.PHONY: all build test test-short race fuzz bench bench-gate check staticcheck smoke sweep figures figures-paper cover clean

all: build test

# check is what CI runs: static analysis, a full build, the race
# detector over every test (which certifies the sweep worker pool and
# the online service), the benchmark's own tests, and the daemon smoke
# test. perfbench/ is a nested module, so the root ./... never reaches
# its tests even though they drive internal/service and internal/shard.
check: staticcheck
	go vet ./...
	go build ./...
	go test -race ./...
	cd perfbench && go vet ./... && go test ./...
	./scripts/smoke.sh

# staticcheck runs when the binary is installed (CI installs it; local
# runs without it just skip).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping"; \
	fi

# e2e smoke: boot dollympd, push jobs via dollymp-load, verify /metrics
# and a clean drain.
smoke:
	./scripts/smoke.sh

# Run the multi-seed benchmark sweep and write BENCH_sweep.json.
sweep:
	go run ./cmd/dollymp-bench -sweep

build:
	go build ./...
	go vet ./...

test:
	go test ./...

test-short:
	go test -short ./...

race:
	go test -race ./...

# Run every fuzz target for FUZZTIME each, not just its seed corpus
# (plain `go test` runs only the seeds). go test -fuzz takes one target
# per invocation, hence one line per target. New failing inputs land in
# the package's testdata/fuzz/<Name>/ and replay on every later go test.
FUZZTIME ?= 15s
fuzz:
	go test -run '^$$' -fuzz '^FuzzStreamNext$$' -fuzztime $(FUZZTIME) ./internal/trace
	go test -run '^$$' -fuzz '^FuzzDecodeJob$$' -fuzztime $(FUZZTIME) ./internal/trace
	go test -run '^$$' -fuzz '^FuzzStreamReplay$$' -fuzztime $(FUZZTIME) ./internal/trace
	go test -run '^$$' -fuzz '^FuzzJournalOpen$$' -fuzztime $(FUZZTIME) ./internal/journal

# Regenerate the checked-in bench trajectory: the Go micro-benchmarks
# (BenchmarkRouterDrain et al., stdout only), the online-engine drain
# (1M jobs at the full profile plus the streamed replay profiles, 1M
# to 25M jobs from an on-disk trace), the sharded-router drain, and
# the multi-seed sweep grid. Leaves exactly BENCH_engine.json,
# BENCH_router.json and BENCH_sweep.json behind — commit them with the
# PR so the bench-gate has a baseline to compare against. Each profile
# runs in its own forked subprocess so peak_rss_bytes is per profile,
# not process-lifetime. The replay traces are generated on first use
# (replay-25m.trace is ~9 GB) and reused afterwards.
bench:
	go test -bench=. -benchmem -run '^$$' ./...
	go run ./cmd/dollymp-bench -drain engine -profiles short,full,short-2k,full-2k,replay-1m,replay-10m,replay-25m -o BENCH_engine.json
	go run ./cmd/dollymp-bench -drain router -o BENCH_router.json
	go run ./cmd/dollymp-bench -sweep -o BENCH_sweep.json
	go run ./cmd/dollymp-bench -drain engine -profiles short -cpuprofile engine-short.cpu.pprof -o /dev/null

# Re-run the short drain profiles — including the 2000-server engine
# profile and the streamed replay-1m profile (generating its trace on
# first use) — and fail if jobs/s dropped or peak RSS rose more than
# 10% against the committed baselines (what CI's bench-gate job runs).
# Every profile runs in a forked subprocess, so the gated peak RSS is
# per profile. A separate first pass captures per-profile CPU pprofs so
# a regression is diagnosable from the CI artifact alone; it is not the
# gated run, because the profiler's own buffers add ~3 MB of RSS that
# `make bench` baselines do not carry (+14% on replay-1m's 21 MB).
# Fresh reports, profiles and the generated trace are kept for artifact
# upload and removed by `make clean`.
bench-gate:
	go run ./cmd/dollymp-bench -drain engine -profiles short,short-2k,replay-1m -cpuprofile engine-short.cpu.pprof -o /dev/null
	go run ./cmd/dollymp-bench -drain engine -profiles short,short-2k,replay-1m -o BENCH_engine.fresh.json
	go run ./cmd/dollymp-bench -drain router -profiles short -o BENCH_router.fresh.json
	go run ./cmd/dollymp-bench -gate -baseline BENCH_engine.json -fresh BENCH_engine.fresh.json
	go run ./cmd/dollymp-bench -gate -baseline BENCH_router.json -fresh BENCH_router.fresh.json

# Regenerate every paper figure (quick scale; use figures-paper for
# evaluation-scale job counts).
figures:
	go run ./cmd/dollymp-bench -scale quick

figures-paper:
	go run ./cmd/dollymp-bench -scale paper

cover:
	go test -coverprofile=cover.out ./...
	go tool cover -func=cover.out | tail -1

# Remove generated-but-uncommitted artifacts. The committed BENCH_*.json
# baselines are deliberately NOT cleaned; *.fresh.json are the
# bench-gate's throwaway comparison runs, *.trace the generated replay
# traces (multi-GB at the 10M/25M scales; regenerated on next use).
clean:
	rm -f cover.out *.fresh.json cpu.pprof mem.pprof *.pprof *.trace *.trace.tmp
