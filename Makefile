# Local targets mirroring .github/workflows/ci.yml so that local runs and
# CI stay identical. `make ci` runs everything CI runs.

GO ?= go

.PHONY: all build vet fmt fmt-check test race flake bench bench-smoke bench-contract smoke examples snapshot-check difftest fuzz-smoke serve-smoke dist-smoke wal-smoke lint ci

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -w .

fmt-check:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "files need gofmt:" >&2; echo "$$out" >&2; exit 1; \
	fi

# -shuffle=on randomizes test order so inter-test state dependencies fail
# in CI instead of in production debugging sessions.
test:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -race ./...

# Flake gate: the suites whose tests race real servers, repeated in
# shuffled order, so a failure that shows up 1 run in 10 cannot hide
# behind one lucky pass.
flake:
	$(GO) test -count=20 -shuffle=on ./internal/difftest ./internal/coord ./internal/httpserve

# Full benchmark run (slow; prints ns/op for every experiment and structure).
bench:
	$(GO) test -run=NONE -bench=. -benchmem ./...

# One iteration of every benchmark plus the experiment-runner smoke —
# exactly what the CI bench-smoke job executes.
bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...
	$(GO) run ./cmd/cqbench -run E1 -n 2000
	$(GO) run ./cmd/cqbench -run E14 -n 2000
	$(GO) run ./cmd/cqbench -run E16 -n 1000 -queries 10
	$(GO) run ./cmd/cqbench -run E18 -shards 1,2 -n 800 -queries 5

# benchmark/ is its own module (see benchmark/README.md), invisible to
# `go build ./...` and `go test ./...` here: vet and test it against this
# tree, so an internal API change that breaks the repository benchmark
# fails locally and in CI instead of in the benchmark pipeline.
bench-contract:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

smoke: bench-smoke

# Build and run every examples/ program — the public-API consumers. CI runs
# this on every PR so the importable surface cannot silently break them.
examples:
	$(GO) build ./examples/...
	@for d in examples/*/; do \
		echo "== $$d"; \
		$(GO) run "./$$d" || exit 1; \
	done

# Snapshot format gate: the round-trip/corruption test suites (compile →
# save → load → byte-identical enumeration across strategies, including a
# planner-chosen space-budget structure, on the eager and the mmap load
# paths), so any wire format regression fails the build. Load-vs-compile
# cost is the repository benchmark's setup_s and core.snapshot_load_s.
# Mirrors the CI snapshot job.
snapshot-check:
	$(GO) test -run 'TestSnapshot|TestMmapLoadIdentity' ./...
	$(GO) test -v -run 'Test(Snapshot|Mmap)RejectsCorruption/version_skew/v[123]$$' ./internal/core

# Differential gate: the whole internal/difftest package. Every strategy
# (and the sharded composites) must enumerate byte-for-byte what the
# independent naive join produces, over 120 seeded random acyclic
# CQ/database instances and 40 cyclic ones; the cached composites must answer cache-on
# byte-identically to cache-off across reload/move churn; the distributed
# and wire-format composites must match a single node in both encodings;
# and the churn suites must survive maintenance and crash recovery.
# -shuffle=on so the harness cannot come to depend on test order.
difftest:
	$(GO) test -shuffle=on -v ./internal/difftest

# Fuzz smoke: a short budget per native fuzz target — the snapshot
# decoder (corrupt input must fail typed, never panic or over-allocate),
# the HTTP binding parser, the binary stream frame reader, the
# relation slab's aliasing invariants against a set oracle, and the
# galloping index seeks against the binary ones. Mirrors
# the CI fuzz job; run with a longer -fuzztime locally when touching any
# of the codecs. -fuzzminimizetime=50x caps the minimization of each new
# coverage-expanding input, whose 60 s default would otherwise eat the
# whole budget on a cold fuzz cache.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -fuzz=FuzzReadRepresentation -fuzztime=$(FUZZTIME) -fuzzminimizetime=50x -run '^$$' ./internal/core
	$(GO) test -fuzz=FuzzBindingsJSON -fuzztime=$(FUZZTIME) -fuzzminimizetime=50x -run '^$$' ./internal/httpserve
	$(GO) test -fuzz=FuzzBinaryStream -fuzztime=$(FUZZTIME) -fuzzminimizetime=50x -run '^$$' ./internal/httpserve
	$(GO) test -fuzz=FuzzRelationSlab -fuzztime=$(FUZZTIME) -fuzzminimizetime=50x -run '^$$' ./internal/relation
	$(GO) test -fuzz=FuzzIndexSeek -fuzztime=$(FUZZTIME) -fuzzminimizetime=50x -run '^$$' ./internal/relation

# Contract lint gate (DESIGN.md §7): build the cqlint multichecker, run
# its analysistest suites, and sweep the whole tree through
# `go vet -vettool` — streamcheck, sentinelcheck, ctxcheck and lockcheck
# must all come back clean, with zero suppressions. govulncheck runs too
# when installed (CI always installs it; this container may not have it).
lint:
	$(GO) build -o bin/cqlint ./cmd/cqlint
	$(GO) test ./internal/analyzers/...
	$(GO) vet -vettool=$(abspath bin/cqlint) ./...
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipped locally (the CI lint job runs it)"; \
	fi

# cqserve end-to-end gate: compile → snapshot → cqserve → curl, diffed
# against cqcli serve output for the same snapshot, then the E21
# cached-serving experiment smoke. Serving throughput and first-tuple
# delay are the repository benchmark's scan-binary and point-ndjson
# workloads. Mirrors the CI serve job.
serve-smoke:
	sh scripts/serve_smoke.sh
	$(GO) run ./cmd/cqbench -run E21 -n 800 -queries 4

# Distributed-serving end-to-end gate: one cqcoord coordinator + three
# cqserve -join workers, byte-identical to a single node in both stream
# encodings, re-verified after a /v1/move rebalance; then the distributed
# differential composite and the coordinator churn tests under -race.
# Mirrors the CI dist-smoke job.
dist-smoke:
	sh scripts/dist_smoke.sh
	$(GO) test -v -run 'TestDistributedDifferential' ./internal/difftest
	$(GO) test -race -run 'TestWorkerDeathMidStream|TestChurnUnderLoad|TestReadinessLifecycle' ./internal/coord

# Durable-maintenance crash gate (DESIGN.md §9): the churn difftest and
# crash-recovery suites under -race, then the wal_smoke.sh crash script —
# a cqchurn writer killed mid-script and a kill -9'd cqserve -wal-dir must
# both recover byte-identically from the update log. Delta-vs-recompile
# cost is the repository benchmark's churn-readwrite core.maintain.*
# metrics. Mirrors the CI wal job.
wal-smoke:
	$(GO) test -race -shuffle=on -run 'TestChurn|TestDeltaApply|TestWAL|TestUpdateLog|TestNoopDelete|TestRebuildBatch' ./internal/core ./internal/difftest ./internal/httpserve ./internal/wal
	sh scripts/wal_smoke.sh

ci: build vet fmt-check lint test race flake bench-smoke bench-contract examples snapshot-check difftest fuzz-smoke serve-smoke dist-smoke wal-smoke
