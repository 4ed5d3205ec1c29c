# Developer and CI entry points. `make ci` is the gate every change must
# pass: build, vet, and the full test suite under the race detector with
# shuffled test order. The GitHub workflow (.github/workflows/ci.yml) runs
# lint, ci plus bench-smoke, modeltime, and cover on every push and pull
# request, and a non-gating fuzz job (make fuzz FUZZTIME=60s).

GO ?= go

# Pinned lint/vuln tool versions — CI installs exactly these (never
# @latest, so a tool release cannot break the gate under anyone's feet).
STATICCHECK_VERSION ?= 2024.1.1
GOVULNCHECK_VERSION ?= v1.1.3

.PHONY: all build vet lint emlint staticcheck govulncheck tools test race modeltime fuzz cover bench bench-smoke ci

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

# Model time, asserted to the nanosecond: pdm's, btree's, extsort's and
# stream's tests behind the goexperiment.synctest build tag run latency
# volumes inside a testing/synctest bubble, where the clock moves only when
# every goroutine is blocked — pdm's transfers and waits, the bulk loader's
# last leaf batch, which Close must wait out, the scanner and the
# write-behind writer booking their next group before they wait out the
# last, the distribution sort and the bulk load taking exactly their pinned
# parallel steps at D=1 and D=4, and F9's overlap (a scan reading ahead
# overlaps its consumer's compute, modelled as a virtual sleep, and never
# finishes after the on-demand scan). The experiments package runs only its
# ModelTime tests here: F10–F14 at 2 ms per block with their clock cells
# pinned and every clock gate decided — F12's session QPS, F13's store
# against per-key inserts and its in-drain QPS, F14's S=4 batch QPS.
# `go test ./...` runs those experiments at zero latency and gates only
# counted cells. Under -race, since each test asserts inside its bubble.
# Needs go1.24 (go.mod's 1.23 has no synctest experiment).
modeltime:
	GOEXPERIMENT=synctest $(GO) test -race ./internal/pdm ./internal/btree ./internal/extsort ./internal/stream
	GOEXPERIMENT=synctest $(GO) test -race -run ModelTime ./internal/experiments

# Coverage-guided search over the store's operation schedules
# (FuzzStoreSchedule in internal/store) for FUZZTIME, 60 s by default. A
# failing input is written under internal/store/testdata/fuzz, where `go
# test` replays it from then on beside the committed seed corpus.
# Minimisation of each new or failing input is capped at 2 s: at Go's
# default of 60 s a one-minute run spent most of its time minimising its
# first new inputs instead of executing schedules. A failing input is still
# written, only less minimised.
FUZZTIME ?= 60s
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzStoreSchedule$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 2s ./internal/store

# Coverage profile across every package, with a per-function summary.
cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1

# Micro-benchmarks (wall clock and counted I/Os). The root package
# contributes the engine, async, ablation and query-serving benchmarks (the
# survey's tables are cmd/embench's job). Then come extsort's in-memory
# sort kernel (BenchmarkMemSort), the store's write-front overlay (BenchmarkStoreScan,
# BenchmarkStoreFrontOps: ns/insert, and ns/get of misses through the
# Store, past a young directory, and through a store Session, which
# reads the old generation with its own cache: get-absent,
# get-absent-young, get-absent-session; BenchmarkOverlay) and its drain
# (BenchmarkStoreDrain: writes/op and ns/op per buffered op), the buffer manager
# (BenchmarkCacheGet), the B-tree's batched fetch
# (BenchmarkGetBatchGroups: reads/key, steps/key and allocs/key at a roomy
# and a saturated cache, and zipf: skewed and uniform batches at a serving
# session's shape, where hit leaves earn the cache's hot class) and its
# bulk loader (BenchmarkBulkLoad: ns/record and allocs/record for 2^20
# sorted records on both leaf paths), the stream
# round trip at both depths (BenchmarkStreams: ns/record and allocs/record,
# on demand and ahead/behind) and extsort's fused index build
# (BenchmarkSortIndex: ns/record, allocs/record and ios/record for 2^18
# random records in 512 frames), and last the file backend's buffered read
# (BenchmarkFileRead in internal/pdm: ns/block and allocs/block for random
# single-block reads of a warmed file volume at 4080-byte blocks, copied out
# of the disk files' mappings; allocs/block is 0), and the sharded scan
# (BenchmarkShardedScan in internal/shard: ns/record and allocs/scan for a
# full scan of 4 shards × 2^16 records, stitched a leaf at a time, stitched
# a record at a time, and each shard's own scan in turn). In those one
# iteration is a fixed batch, the per-item cost its own column; -benchtime
# 3x keeps each at three iterations.
bench:
	$(GO) test -run xxx -bench . -benchtime 3x . ./internal/extsort ./internal/store ./internal/cache ./internal/btree ./internal/stream ./internal/pdm ./internal/shard

# The repo benchmark (BENCHMARK.json, bench/) is a module of its own that
# `go build ./...` does not reach; its smoke test runs every workload at
# 1/16 size and checks every answer, so a facade change that breaks the
# benchmark fails here. A few seconds.
bench-smoke:
	cd bench && $(GO) test ./...

ci: build vet race
