# Developer and CI entry points. `make ci` is the gate every change must
# pass: vet plus the full test suite under the race detector, so a dropped
# lock in the concurrent I/O engine fails the build rather than a user.
# The GitHub workflow (.github/workflows/ci.yml) runs lint + ci + cover on
# every push/PR and bench-json as a non-gating trajectory job.

GO ?= go

# Pinned lint/vuln tool versions — CI installs exactly these (never
# @latest, so a tool release cannot break the gate under anyone's feet).
STATICCHECK_VERSION ?= 2024.1.1
GOVULNCHECK_VERSION ?= v1.1.3

.PHONY: all build vet lint emlint staticcheck govulncheck tools test race cover bench bench-json bench-smoke ci

all: ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Lint is gofmt cleanliness, vet, the repo's own emlint analyzers, and
# staticcheck when installed; CI fails if any of them flags anything.
lint: emlint staticcheck
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; \
	fi
	$(GO) vet ./...

# The in-repo analyzers (cmd/emlint): poolbalance, pinpair, joinasync,
# closesink — the I/O-accounting disciplines. See CONTRIBUTING.md.
emlint:
	$(GO) run ./cmd/emlint ./...

# Gates in CI (which installs the pinned version via `make tools`); a dev
# box without the binary skips rather than fails, since the container may
# be offline.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (run 'make tools')"; \
	fi

# Non-gating everywhere: vulnerability reports inform, new CVE disclosures
# must not break unrelated merges.
govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (run 'make tools')"; \
	fi

# Install the pinned tool versions (needs network; CI runs this).
tools:
	$(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)
	$(GO) install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION)

test:
	$(GO) test ./...

# -shuffle=on randomises test order within each package, so a test that
# leaks state into a sibling fails here instead of in a user's tree.
race:
	$(GO) test -race -shuffle=on ./...

# Coverage profile across every package, with a per-function summary.
cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1

# Engine and experiment benchmarks (wall-clock + counted I/Os). The full
# suite — every experiment table plus the engine, async, and query-serving
# benchmarks — runs, then extsort's in-memory sort kernel
# (BenchmarkMemSort), the store's write-front overlay (BenchmarkStoreScan,
# BenchmarkStoreFrontOps, BenchmarkOverlay) and its drain
# (BenchmarkStoreDrain: writes/op and ns/op per buffered op), the buffer manager
# (BenchmarkCacheGet), the B-tree's batched fetch
# (BenchmarkGetBatchGroups: steps/key and allocs/key at a roomy and a
# saturated cache) and its bulk loader (BenchmarkBulkLoad: ns/record and
# allocs/record for 2^20 sorted records on both leaf paths), the stream
# round trip at both depths (BenchmarkStreams: ns/record and allocs/record,
# on demand and ahead/behind) and the fused index build
# (BenchmarkSortIndex: ns/record, allocs/record and ios/record for 2^18
# random records in 512 frames) — in those one iteration is a fixed batch,
# the per-item cost its own column; -benchtime 3x keeps each at three
# iterations.
bench:
	$(GO) test -run xxx -bench . -benchtime 3x . ./internal/extsort ./internal/store ./internal/cache ./internal/btree ./internal/stream ./internal/pipeline

# The repo benchmark (BENCHMARK.json, bench/) is a module of its own that
# `go build ./...` does not reach; its smoke test runs every workload at
# 1/16 size and checks every answer, so a facade change that breaks the
# benchmark fails here. A few seconds.
bench-smoke:
	cd bench && $(GO) test ./...

# Machine-readable benchmark trajectory: sync vs async sort/bulk-load, the
# write-behind loader and the fused sort→index build, the query-serving points
# (looped vs batched lookups, sync vs prefetched scans), the online
# store's mixed-workload points (buffered writes vs per-key inserts,
# serving quiesced vs through a drain) at D in {1,4}, the sharded
# serving points (merge-cut batch, stitched scan at S in {1,4}), and the
# robustness points (open-loop p50/p99 and shed profile at half and twice
# calibrated capacity, clean-vs-faulted serving with the retry audit),
# wall-clock and counted I/Os, written to BENCH_PR9.json. Committed once
# per PR so perf history accumulates as a diffable series
# (BENCH_PR3..PR8.json are the previous points).
bench-json:
	$(GO) run ./cmd/embench -json BENCH_PR9.json
	@cat BENCH_PR9.json

ci: build vet race
