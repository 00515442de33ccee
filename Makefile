# dbpsim — common developer entry points (plain go commands work too).

GO ?= go

.PHONY: build test test-short bench bench-quick bench-json bench-gate sweep sweep-quick vet fmt lint ci serve smoke chaos-smoke scenario-smoke fleet-smoke fleet-chaos-smoke tenant-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -l -w .

# Static analysis beyond vet: gofmt cleanliness always; a doc-consistency
# check that every field used by the committed scenario files is documented
# in docs/SCENARIOS.md and that every dbpserved flag and serve/fleet metric
# is documented in docs/SERVICE.md, docs/FLEET.md, or README.md;
# staticcheck and govulncheck when they are on PATH
# (the hermetic build container has only the go toolchain, so they are
# opportunistic locally but installed in CI).
lint:
	test -z "$$(gofmt -l .)" || { gofmt -l .; exit 1; }
	$(GO) vet ./...
	$(GO) run ./scripts/doccheck
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "lint: staticcheck not on PATH; skipping"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; \
	else echo "lint: govulncheck not on PATH; skipping"; fi

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# --- Benchmarks / performance ledger (see EXPERIMENTS.md) --------------------
#
# -run='^$' keeps unit tests out of bench runs; -count repeats each benchmark
# so scripts/benchjson can take medians. The gate set is split into macro
# benchmarks (one op = one full simulation run; -benchtime=1x) and micro
# benchmarks (per-cycle and substrate costs; wall-clock benchtime), because
# no single -benchtime suits both.
BENCH_COUNT ?= 6
BENCH_PR ?= 17
BENCH_BASELINE ?= BENCH_$(BENCH_PR).json
BENCH_MACRO = 'PolicyCycles|IdleHeavy'
BENCH_MICRO = 'MeasureLoopSteadyState|DRAMCommandIssue|CacheAccess|TraceGeneration|AddressDecode'
# bench-gate writes the raw benchmark output and the parsed head ledger here.
BENCH_LOG ?= /tmp/bench-output.txt
BENCH_HEAD ?= /tmp/bench-head.json
# The perf-ledger set, as one shell command printing raw benchmark output.
BENCH_SET = { $(GO) test -run='^$$' -bench=$(BENCH_MACRO) -benchmem -benchtime=1x -count=3 . ; \
	  $(GO) test -run='^$$' -bench=$(BENCH_MICRO) -benchmem -benchtime=100ms -count=3 . ./internal/sim ; }

# Full benchmark sweep: every benchmark (paper figures + perf ledger).
bench:
	$(GO) test -run='^$$' -bench=. -benchmem -count=$(BENCH_COUNT) . ./internal/sim

# The perf-ledger set only: fast enough for CI, stable enough to gate on.
bench-quick:
	$(GO) test -run='^$$' -bench=$(BENCH_MACRO) -benchmem -benchtime=1x -count=3 .
	$(GO) test -run='^$$' -bench=$(BENCH_MICRO) -benchmem -benchtime=100ms -count=3 . ./internal/sim

# Record the perf-ledger baseline (commit the resulting BENCH_<pr>.json).
bench-json:
	$(BENCH_SET) | $(GO) run ./scripts/benchjson parse -pr $(BENCH_PR) -o $(BENCH_BASELINE)

# Regression gate: rerun the perf-ledger set and compare against the
# committed baseline. Time metrics tolerate 35% (override with
# BENCH_MAX_SLOWER); allocs/op is strict — zero-alloc stays zero-alloc;
# the deterministic coreticks/simcycle work count is near-exact (+0.5%).
bench-gate:
	$(BENCH_SET) | tee $(BENCH_LOG) | $(GO) run ./scripts/benchjson parse -o $(BENCH_HEAD)
	$(GO) run ./scripts/benchjson compare $(BENCH_BASELINE) $(BENCH_HEAD)

# Run the simulation service in the foreground (ctrl-C drains).
serve:
	$(GO) run ./cmd/dbpserved -addr :8080

# The daemon drills below (smoke, scenario-smoke, chaos-smoke, tenant-smoke,
# fleet-smoke, fleet-chaos-smoke) share one harness, scripts/internal/drill.
# Set DRILL_ARTIFACTS=<dir> to keep every drill's journals, checkpoint blobs,
# and per-daemon logs there for post-mortem (CI uploads them on failure).

# End-to-end smoke test: build the real dbpserved binary, start it, POST a
# quick run (assert 200 + schema v1 + a cache hit on the repeat), SIGTERM,
# and require a clean drain (exit 0).
smoke:
	$(GO) build -o /tmp/dbpserved-smoke ./cmd/dbpserved
	$(GO) run ./scripts/smoke /tmp/dbpserved-smoke
	rm -f /tmp/dbpserved-smoke

# Scenario smoke: run every committed scenarios/*.json through the real
# dbpsim binary and the real dbpserved daemon at a short budget, asserting
# the ledgers parse, carry the scenario identity, and that the scenario
# content hash keys the service cache (identical request hits, same-name
# different-content request misses).
scenario-smoke:
	$(GO) build -o /tmp/dbpsim-scenario ./cmd/dbpsim
	$(GO) build -o /tmp/dbpserved-scenario ./cmd/dbpserved
	$(GO) run ./scripts/scenariosmoke /tmp/dbpsim-scenario /tmp/dbpserved-scenario
	rm -f /tmp/dbpsim-scenario /tmp/dbpserved-scenario

# Chaos drill: drive the real binary through injected panics, abandoned
# runs, and SIGKILL-plus-restart over a journal — including a kill mid-run
# that must resume from its checkpoint (and a corrupt-checkpoint variant
# that must fall back to a clean rerun), always with ledgers byte-identical
# to uninterrupted runs — plus the multi-tenant drill (see tenant-smoke).
chaos-smoke:
	$(GO) build -o /tmp/dbpserved-chaos ./cmd/dbpserved
	$(GO) run ./scripts/chaossmoke /tmp/dbpserved-chaos
	rm -f /tmp/dbpserved-chaos

# Multi-tenant drill only (a filtered chaos-smoke; CI's chaos-smoke step
# already includes it): a greedy batch tenant flooding a 1-worker daemon
# must not starve an interactive tenant, its over-budget submission is
# refused with the billed estimate plus a Retry-After refill hint, and
# SIGKILL + restart preserves per-tenant attribution and spent quota.
tenant-smoke:
	$(GO) build -o /tmp/dbpserved-tenant ./cmd/dbpserved
	$(GO) run ./scripts/chaossmoke -run tenants /tmp/dbpserved-tenant
	rm -f /tmp/dbpserved-tenant

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

# The gate CI runs: lint, build, the full test suite, the suite again under
# the race detector with -short (the paper-shape regressions run several
# full-length simulations; under the detector's ~15x slowdown they would
# blow the test timeout without adding race coverage), the dbpserved
# smoke + chaos + fleet + fleet-resilience drills against the real binary, and the benchmark
# regression gate against the committed perf-ledger baseline.
ci:
	$(MAKE) lint
	$(GO) build ./...
	$(GO) test ./...
	$(GO) test -race -short ./...
	$(MAKE) smoke
	$(MAKE) scenario-smoke
	$(MAKE) chaos-smoke
	$(MAKE) fleet-smoke
	$(MAKE) fleet-chaos-smoke
	$(MAKE) bench-gate

# Regenerate every paper table/figure (full budgets; ~15 min).
sweep:
	$(GO) run ./cmd/dbpsweep -exp all -csv results

# Fast regression pass over three mixes.
sweep-quick:
	$(GO) run ./cmd/dbpsweep -exp all -quick
