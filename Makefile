# dbpsim — common developer entry points (plain go commands work too).

GO ?= go

.PHONY: build test test-short test-race bench sweep sweep-quick vet fmt lint ci serve chaos-smoke scenario-smoke fleet-smoke fleet-chaos-smoke

build:
	$(GO) build ./...

# perfbench/ is a separate module that builds on the internal packages;
# vetting it keeps API changes from breaking the benchmark unnoticed.
vet:
	$(GO) vet ./...
	$(GO) -C perfbench vet ./...

fmt:
	gofmt -l -w .

# Static analysis beyond vet: a doc-consistency check that every field used
# by the committed scenario files is documented in docs/SCENARIOS.md and
# that every dbpserved flag and serve/fleet metric is documented in
# docs/SERVICE.md, docs/FLEET.md, or README.md; staticcheck and govulncheck
# when they are on PATH (the hermetic build container has only the go
# toolchain, so they are opportunistic locally but installed in CI); gofmt
# cleanliness always, checked last so a formatting slip does not hide the
# other checks.
lint:
	$(GO) vet ./...
	$(GO) run ./scripts/doccheck
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "lint: staticcheck not on PATH; skipping"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; \
	else echo "lint: govulncheck not on PATH; skipping"; fi
	test -z "$$(gofmt -l .)" || { gofmt -l .; exit 1; }

# perfbench/ is a nested module, so the root ./... stops at it; its own
# unit tests (BENCHMARK.json against the declared metrics) run second.
test:
	$(GO) test ./...
	$(GO) -C perfbench test ./...

test-short:
	$(GO) test -short ./...

# The suite under the race detector, with -short: the paper-shape
# regressions run several full-length simulations, and under the detector's
# ~15x slowdown they would blow the test timeout without adding race
# coverage.
test-race:
	$(GO) test -race -short ./...

# --- Benchmarks (see docs/LEDGER.md) ----------------------------------------
#
# Every benchmark: the paper tables/figures, the simulator-cost set and the
# service's cache-hit path, for reading and profiling. -run='^$' keeps unit
# tests out. Nothing here gates: TestBenchmarkWorkCounts and
# TestSubmitCacheHitAllocs (go test) pin allocs/op and coreticks/simcycle,
# and scripts/abbench gates wall time.
BENCH_COUNT ?= 6

bench:
	$(GO) test -run='^$$' -bench=. -benchmem -count=$(BENCH_COUNT) . ./internal/sim ./internal/serve

# Run the simulation service in the foreground (ctrl-C drains).
serve:
	$(GO) run ./cmd/dbpserved -addr :8080

# The drills below build the real binaries and keep to what only a real
# process can show; the in-process suites (go test) pin the service's other
# contracts. The daemon drills share one harness, scripts/internal/drill.
# Set DRILL_ARTIFACTS=<dir> to keep every drill's journals, checkpoint blobs,
# and per-daemon logs there for post-mortem (CI uploads them on failure).

# Scenario smoke: run every committed scenarios/*.json through the built
# dbpsim binary at a short budget, asserting it exits 0 and writes a ledger
# that parses and carries the scenario's name and content hash.
scenario-smoke:
	$(GO) build -o /tmp/dbpsim-scenario ./cmd/dbpsim
	$(GO) run ./scripts/scenariosmoke /tmp/dbpsim-scenario
	rm -f /tmp/dbpsim-scenario

# Chaos drill: the built binary refuses -chaos without -chaos-allow; a
# daemon SIGKILLed mid-run and restarted over its journal serves a finished
# job's pre-kill bytes (and a cache hit for it) and resumes the killed run
# from its on-disk checkpoint; with every checkpoint blob corrupted it
# falls back to a clean rerun. Both resumed ledgers are byte-identical to
# an uninterrupted run.
chaos-smoke:
	$(GO) build -o /tmp/dbpserved-chaos ./cmd/dbpserved
	$(GO) run ./scripts/chaossmoke /tmp/dbpserved-chaos
	rm -f /tmp/dbpserved-chaos

# Fleet drill: boot a real coordinator + 3 real workers, run a batch sweep
# (NDJSON stream, one simulation per unique cell fleet-wide), SIGKILL the
# owner of a long run mid-flight and require the coordinator to finish it
# on a survivor from the mirrored checkpoint — every ledger byte-identical
# to a single-node reference daemon's.
fleet-smoke:
	$(GO) build -o /tmp/dbpserved-fleet ./cmd/dbpserved
	$(GO) run ./scripts/fleetsmoke /tmp/dbpserved-fleet
	rm -f /tmp/dbpserved-fleet

# Fleet resilience drill: SIGKILL the journaled coordinator mid-sweep and
# restart it over the same journal (the sweep resumes from its first
# incomplete cell, a resubmitted identical sweep is byte-identical to the
# reference, and the fleet never re-simulates a completed cell), then boot
# a worker behind an injected network partition (it must serve standalone
# in degraded mode and never join the ring).
fleet-chaos-smoke:
	$(GO) build -o /tmp/dbpserved-fleet-chaos ./cmd/dbpserved
	$(GO) run ./scripts/fleetsmoke -chaos /tmp/dbpserved-fleet-chaos
	rm -f /tmp/dbpserved-fleet-chaos

# The gate CI runs: lint, build, vet (both modules), the full test suite
# (including TestBenchmarkWorkCounts, the allocation and work-count gate),
# the short race pass, and the scenario, chaos, fleet and fleet-resilience
# drills against the real binaries. The stages are prerequisites, so
# `make -k ci` (what CI runs) runs and reports every stage even when an
# earlier one fails, and still fails overall.
ci: lint build vet test test-race scenario-smoke chaos-smoke fleet-smoke fleet-chaos-smoke

# Regenerate every paper table/figure (full budgets; ~15 min).
sweep:
	$(GO) run ./cmd/dbpsweep -exp all -csv results

# Fast regression pass over three mixes.
sweep-quick:
	$(GO) run ./cmd/dbpsweep -exp all -quick
