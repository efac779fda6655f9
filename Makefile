# Verification gate for gpssn. `make check` is the single entry CI runs:
# gofmt, vet, lint, build, the tier-1 tests, the tie gates repeated ten
# times (tie-check), a race-detector pass (short
# mode so the heavy bench package stays fast; see docs/CONCURRENCY.md §5),
# every runnable example, the kernel benchmarks run once (kernel-bench), every
# paper figure and the 1M tier at a tiny scale (figures-smoke), then the
# benchmark harness built and smoke-run against this tree.

GO ?= go

.PHONY: check fmt vet lint build test tie-check race examples kernel-bench figures-smoke docs-lint serve-smoke fuzz-smoke snapshot-matrix churn-suite crash-suite bench-check bench bench-scale

check: fmt vet lint build test tie-check race examples kernel-bench figures-smoke bench-check

# Unformatted files fail the build; the offenders are listed.
fmt:
	@out="$$(gofmt -l .)"; test -z "$$out" || { echo "fmt: gofmt -l . lists:"; echo "$$out"; exit 1; }

vet:
	$(GO) vet ./...

# staticcheck when available; skip quietly on machines without it (CI
# installs it in the lint job).
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipping"; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test -timeout 10m ./...

# The equal-cost tie gates, ten times over: engine answers must match the
# sequential (Parallelism 1) twin, the Dijkstra reference and the churn
# twins on every run,
# so a tie that flips with worker timing fails here instead of passing
# one run in N by luck.
tie-check:
	$(GO) test -count=10 -timeout 10m -run '^(TestSharedWorkEquality|TestSharedWorkCancellation|TestOracleEqualityQueries|TestHLOracleEqualityQueries|TestSharedWorkRaceStress|TestRoadChurnEqualityGates)$$' .

race:
	$(GO) test -race -short -timeout 10m ./...

# Every runnable example end to end; each is a standalone main that
# exits non-zero on failure, so this doubles as a living-docs check.
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/tripplanning
	$(GO) run ./examples/marketing
	$(GO) run ./examples/importcsv
	$(GO) run ./examples/serve

# The in-package kernel benchmarks, one iteration each, so they keep
# compiling and running (BenchmarkGroupSearch: the per-anchor group search
# at τ = 4, 5 and 7; BenchmarkAnchorOrder: refinement's lazy anchor order
# over 1,054 candidates; about a second in all).
kernel-bench:
	$(GO) test -run '^$$' -bench 'GroupSearch|AnchorOrder' -benchtime 1x ./internal/core

# Every experiment of the figure harness end to end at a tiny scale (the
# harness tests run only some of them), plus the opt-in 1M tier, which
# builds through the same constructor. A couple of seconds.
figures-smoke:
	$(GO) run ./cmd/gpssn-bench -exp all -scale 0.01 -queries 3 > /dev/null
	$(GO) run ./cmd/gpssn-bench -exp scale1m -scale 0.002 -queries 4 > /dev/null

# Broken relative links (file or heading anchor) in the markdown docs
# fail the build; CI runs this in the lint job.
docs-lint:
	$(GO) run ./cmd/docs-lint README.md DESIGN.md EXPERIMENTS.md docs/*.md benchmark/README.md

# End-to-end smoke test of the shipped gpssn-serve binary: build, serve a
# generated dataset, health-check and query over real HTTP, drain on
# SIGTERM (docs/SERVING.md §7). CI runs this on every push.
serve-smoke:
	./scripts/serve-smoke.sh

# Short native-fuzz runs over the hostile-input surfaces (CSV import,
# snapshot decode, WAL replay). ~30s each; CI runs this on every push, and
# longer local runs just raise FUZZTIME. See docs/ROBUSTNESS.md §5.
FUZZTIME ?= 30s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzImportCSV$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzSnapshotDecode$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzWALReplay$$' -fuzztime $(FUZZTIME) ./internal/wal

# The snapshot round-trip and corruption/torn-write matrix on its own —
# the recovery gates the robustness PR promises (docs/ROBUSTNESS.md §4).
snapshot-matrix:
	$(GO) test -run 'TestSnapshot|TestOpenSnapshot' -count=1 -v .

# The road-churn suite under -race: delta-overlay equality gates across
# all oracle backends (pre/during/post background Compact), the
# concurrent-mutation interleavings, and the rebuild-failure fallback
# (docs/CONCURRENCY.md §7, docs/ROBUSTNESS.md §6).
churn-suite:
	$(GO) test -race -run 'TestRoadChurn|TestDBConcurrentRoadChurn|TestCompact|TestRoadOverlay|TestRoadMutation|TestAddFriendshipInvalid|TestDuplicateFriendship|TestOverlay' -count=1 -v . ./internal/roadnet/

# The WAL crash matrix and durability gates on their own: kill points and
# corruption modes in the write path (torn tails, short writes, bit flips,
# both checkpoint windows) recovered bit-identical to a never-crashed twin
# across all oracle backends, plus the facade durability round-trip,
# rejection atomicity, delta folding, and the wal package's own tests
# (docs/ROBUSTNESS.md §8).
crash-suite:
	$(GO) test -run 'TestWAL|TestSnapshotFoldsPendingDeltas|TestOverlayAutoCompact|TestDBClose' -count=1 -v .
	$(GO) test -count=1 -v ./internal/wal

# benchmark/ is a module of its own, so `go build ./... && go test ./...`
# never compiles it: this target does, and then runs the shortest traced
# workload the harness accepts (3 s; its p95 sample guard refuses 2) — the
# traced run calls the widest product API — requiring exit 0 and
# "correct":true on the last line. Under a minute of wall time.
bench-check:
	$(GO) -C benchmark vet ./...
	$(GO) -C benchmark test ./...
	@mkdir -p benchmark/out
	bash benchmark/run.sh --workload uni_cold --seed 1 --seconds 3 --trace 1 > benchmark/out/bench-check.log || { tail -n 20 benchmark/out/bench-check.log; exit 1; }
	tail -n 1 benchmark/out/bench-check.log | grep -q '"correct":true'

# The repository's benchmark (BENCHMARK.json, benchmark/README.md): the four
# workloads at seed 1 for 12 s each, one JSON line per run appended to
# benchmark/out/<commit>.jsonl. Compare two such files with
# `bash benchmark/run.sh --compare parent.jsonl change.jsonl`.
bench:
	@out=benchmark/out/$$(git rev-parse --short HEAD).jsonl; \
	for w in uni_cold zipf_hot churn_wal serve_open; do \
		bash benchmark/run.sh --workload $$w --seed 1 --seconds 12 --trace 0 --out $$out || exit 1; \
	done; \
	echo "bench: results appended to $$out"

# The million-scale tier: generate ~1M road vertices / ~1M users with the
# streaming lattice generator, build CH + hub labels, run the default query
# workload, and record latency percentiles plus peak RSS in
# BENCH_scale1m.json (recorded in EXPERIMENTS.md). Deliberately heavy:
# ~18 min and ~11 GB peak on one core at full scale.
bench-scale:
	$(GO) run ./cmd/gpssn-bench -exp scale1m -scale 1.0 -queries 16 -jsonout BENCH_scale1m.json
