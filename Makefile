# Tier-1 gate plus the race-mode pass over the concurrency-bearing packages.
# CI (.github/workflows/ci.yml) runs these same targets as individual steps;
# a target added to `ci:` below must also be added there to run in CI.

GO ?= go

# The race pass covers the whole module. -short keeps its runtime bounded:
# a handful of minutes-long experiment reproductions (internal/exp) skip
# themselves under testing.Short(); everything else runs in full. The plain
# `test` target runs without -short, so the skipped tests still gate CI —
# just without the race detector's ~10x slowdown.
RACE_PKGS = ./...

.PHONY: ci fmt vet lint build test race flake docs churn-smoke repro-golden bench bench-check fuzz-smoke tally

ci: fmt vet lint build test race docs churn-smoke repro-golden bench-check fuzz-smoke

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Invariant lint: the orcflint analyzer suite (internal/tools/orcflint)
# mechanically enforces lock hygiene, snapshot immutability, deterministic
# iteration, NaN-free JSON, and pure state paths. Any diagnostic fails the
# build; suppressions need an audited `//orcflint:ignore <rule> <reason>`
# comment. Must run from the repository root (intra-module import paths
# resolve relative to the module).
lint:
	$(GO) run ./cmd/orcflint ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -short $(RACE_PKGS)

# Flake hunt: the five packages whose tests lean on goroutines, sockets and
# timers, twenty times under the race detector. Several minutes, so it is not
# part of `ci:`; run it by hand on any change to reconnect, recovery or
# webhook code (see "Hunting a flaky test" in docs/OPERATIONS.md). -short
# shrinks the two CPU-bound differential sweeps in internal/serve, which hunt
# no race: at full size the JSON-float sweep alone takes ~40 s per run under
# -race, and twenty runs exceed go test's ten-minute timeout.
FLAKE_PKGS = ./internal/serve ./internal/persist ./internal/transport ./internal/alert ./cmd/forecastd
flake:
	$(GO) test -race -short -count=20 $(FLAKE_PKGS)

# Docs gate: markdown links in README/docs must resolve, exported
# identifiers in the gated packages must carry doc comments, and every
# cmd/* flag must stay documented in docs/OPERATIONS.md (and vice versa).
docs:
	$(GO) run ./internal/tools/docscheck

# Churn smoke: a small elastic fleet with Poisson join/leave against a
# live in-process collector, verified bit-for-bit (exit 1 on mismatch).
churn-smoke:
	$(GO) run ./cmd/loadgen -nodes 64 -conns 4 -steps 40 -churn 1.5

# Reproduction goldens: cmd/repro's TestGoldens reruns every experiment but
# the timing tables tab2 and tab4 at a small scale, once at GOMAXPROCS=1 (every
# pool's serial path) and once at the process's width, and compares each table
# byte for byte with cmd/repro/testdata/<exp>.golden. Its list holds each
# experiment's scale and the command that regenerates a golden; regenerate
# one only in a change meant to move it, and say so. The goldens are
# linux/amd64 output, the platform CI runs on. `go test ./...` runs it too;
# -short, and so the race pass, skips it.
repro-golden:
	$(GO) test -count=1 -run '^TestGoldens$$' ./cmd/repro

# Micro-benchmarks to work with; performance claims are measured with
# `bash bench/run.sh` (see bench/README.md).
bench:
	$(GO) test -run xxx -bench 'EnsembleSelect' -benchmem .
	$(GO) test -run xxx -bench '^Benchmark(PipelineStep|ForecastQuery|RefitRound)$$' -benchmem -cpu 1,2 .
	$(GO) test -run xxx -bench '^Benchmark(Ingest|PlanBuild)$$' -benchmem -cpu 1 ./internal/core
	$(GO) test -run xxx -bench '^BenchmarkAdaptiveDecide$$' -benchmem ./internal/transmit
	$(GO) test -run xxx -bench '^BenchmarkTrackerUpdate$$' -benchmem ./internal/cluster
	$(GO) test -run xxx -bench ServeForecast -benchmem -cpu 1,2 ./internal/serve
	$(GO) test -run xxx -bench AppendJSONFloat ./internal/serve
	$(GO) test -run xxx -bench AlertEvaluate -benchmem ./internal/alert
	$(GO) test -run xxx -bench TransportIngest -benchmem ./internal/transport
	$(GO) test -run xxx -bench 'RunFlat|AssignFlat' -benchmem ./internal/kmeans
	$(GO) test -run xxx -bench '^Benchmark(AutoARIMAFit|CSSResiduals)$$' -benchmem ./internal/forecast
	$(GO) test -run xxx -bench '^BenchmarkGenerate$$' -benchmem ./internal/trace

# Repository benchmark check: bench/ is a module of its own (orcf/bench,
# `replace orcf => ../`) that imports orcf/internal/..., so the root
# `./...` targets above never compile it. Vet, test and lint it here so an
# internal API change cannot break `bash bench/run.sh` unnoticed.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./... && $(GO) run orcf/cmd/orcflint ./...

# Fuzz smoke: a short coverage-guided run of every native fuzz target in the
# module, from its committed seed corpus. The targets are found with
# `go test -list '^Fuzz'`, so a new one joins without an edit here, and the
# run fails when none is found. go test allows one -fuzz pattern per
# invocation, hence one run per target.
FUZZTIME ?= 10s
fuzz-smoke:
	@out=$$($(GO) test -list '^Fuzz' ./...) || { echo "$$out"; exit 1; }; \
	targets=$$(echo "$$out" | awk '/^Fuzz/ { f[n++] = $$1; next } /^ok/ { for (i = 0; i < n; i++) print $$2 "," f[i]; n = 0 }'); \
	if [ -z "$$targets" ]; then echo "fuzz-smoke: no fuzz targets found"; exit 1; fi; \
	for t in $$targets; do \
		pkg=$${t%,*}; fn=$${t#*,}; \
		echo "fuzz-smoke: $$pkg $$fn"; \
		$(GO) test $$pkg -run '^$$' -fuzz "^$$fn"'$$' -fuzztime $(FUZZTIME) || exit 1; \
	done

# Code-size tally: lines added and deleted in the module's non-test Go files
# (bench/ and *_test.go excluded) between BASE and the working tree — the
# count ROADMAP item 5 asks every change to report. Lines moved from program
# files into test files count as deleted here; subtract them by hand.
# Untracked files are not counted until they are added to the index.
BASE ?= HEAD
tally:
	@git diff --numstat $(BASE) -- '*.go' ':(exclude)*_test.go' ':(exclude)bench/' | \
		awk '{ a += $$1; d += $$2 } END { printf "non-test Go since %s: %d added, %d deleted, net %+d\n", "$(BASE)", a, d, a - d }'
