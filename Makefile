GO ?= go

# check is the gate every change must pass: static analysis (of the
# perfbench module too), a full build, the full test suite, a
# race-detector pass over the packages that use (sweep runner, serve
# daemon) or feed (event kernel) concurrency, and the exhaustive
# small-config protocol model check.
.PHONY: check
check: vet perfbench-vet lint tablecover build test race modelcheck trace-smoke

.PHONY: vet
vet:
	$(GO) vet ./...

# perfbench-vet compiles and vets the benchmark harness. perfbench is
# its own module, so the root `./...` never reaches it, and an API
# change in internal/bench or internal/core would otherwise break the
# benchmark unnoticed.
.PHONY: perfbench-vet
perfbench-vet:
	cd perfbench && $(GO) vet ./...

# lint runs the repo's own analyzers (determinism contract, stats-key
# registry, event-callback safety), plus staticcheck when installed.
.PHONY: lint
lint:
	$(GO) run ./cmd/dstore-lint ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi

# tablecover statically cross-checks the protocol table against its
# handlers: every declared (state, event) row must have a handler arm
# in ctrl.go/memctrl.go, every Transition call site must be able to hit
# a declared row, and every declared row must fire in the committed
# model-checker reachability dump. It already runs inside `lint`; this
# target is the focused rerun for protocol edits.
.PHONY: tablecover
tablecover:
	$(GO) run ./cmd/dstore-lint -run tablecover ./internal/coherence

# reachability regenerates the committed model-checker coverage dump
# that the tablecover dead-transition check diffs against. Rerun after
# any protocol-table or model change and commit the result.
.PHONY: reachability
reachability:
	$(GO) run ./cmd/dstore-modelcheck -coverage internal/coherence/testdata/reachability.json
	@echo "wrote internal/coherence/testdata/reachability.json"

# modelcheck exhaustively explores the standard sweep of small
# protocol configurations (~4.2M states across 7 configs, ~8s with the
# parallel checker) and fails on any SWMR / data-value / MM-install
# invariant violation, or if the sweep ever explores fewer states than
# the committed floor (a shrinking sweep means rules silently stopped
# firing).
.PHONY: modelcheck
modelcheck:
	$(GO) run ./cmd/dstore-modelcheck -min-states 4000000

.PHONY: build
build:
	$(GO) build ./...

.PHONY: test
test:
	$(GO) test ./...

.PHONY: race
race:
	$(GO) test -race ./internal/bench ./internal/sim ./internal/serve ./internal/chaos ./internal/coherence ./internal/store ./internal/fleet ./internal/modelcheck

# stress runs the seeded randomized coherence stress harness with the
# heavy fault profile. Deterministic: the same SEED and PROFILE always
# produce a byte-identical transcript, so a failure here is a seed you
# can replay forever. Override e.g. `make stress SEED=42 OPS=50000`.
SEED ?= 2026
PROFILE ?= heavy
OPS ?= 10000
.PHONY: stress
stress:
	$(GO) run ./cmd/dstore-sim -stress -chaos-seed $(SEED) -chaos-profile $(PROFILE) -stress-ops $(OPS)

# stress-soak fans the harness out across many seeds in parallel —
# the long-haul version of `make stress` for hunting rare interleavings.
.PHONY: stress-soak
stress-soak:
	$(GO) run ./cmd/dstore-sim -stress -chaos-seed $(SEED) -chaos-profile $(PROFILE) -stress-ops $(OPS) -stress-instances 32

# trace-smoke records a Chrome trace of one small benchmark and
# validates it: dstore-sim re-parses the written file through
# encoding/json (the same parse Perfetto performs) and exits non-zero
# on a malformed document. The timeline, histogram and time-series
# exports ride along so every observability format gets exercised.
.PHONY: trace-smoke
trace-smoke:
	$(GO) run ./cmd/dstore-sim -bench MT -input small -mode direct-store \
		-trace /tmp/dstore-trace-smoke.json -timeline /tmp/dstore-trace-smoke.txt \
		-hist -timeseries /tmp/dstore-trace-smoke.csv > /dev/null
	@rm -f /tmp/dstore-trace-smoke.json /tmp/dstore-trace-smoke.txt /tmp/dstore-trace-smoke.csv
	@echo "trace-smoke: ok"

# The *-smoke targets below rerun, uncached, the tests that carry each
# end-to-end walkthrough; `make test` already runs all of them.
#
# serve-smoke: one job submitted, resubmitted, and served as a
# byte-identical cache hit with the hit and execution counters checked.
.PHONY: serve-smoke
serve-smoke:
	$(GO) test -count=1 -run '^TestCacheHitDeterminism$$' ./internal/serve

# fleet-smoke: real coordinator and worker processes, a 1000-job sweep,
# a worker SIGKILLed mid-sweep, every result byte-identical to an
# oracle; and a sweep failing over a dead ring member.
.PHONY: fleet-smoke
fleet-smoke:
	$(GO) test -count=1 -run '^(TestFleetE2E|TestSweepFailsOverDeadWorker)$$' ./internal/fleet

# fleet-chaos-smoke: a worker behind a chaosnet proxy is partitioned
# (the breaker trips), healed, and serves one corrupted result body
# (caught by the digest check and quarantined); the worker is then
# requalified and its breaker reclosed by a probe.
.PHONY: fleet-chaos-smoke
fleet-chaos-smoke:
	$(GO) test -count=1 -run '^TestFleetChaosE2E$$' ./internal/fleet

# obs-fleet-smoke: the stitched cross-process Chrome trace carries
# spans from the coordinator and both workers under the outcomes' trace
# ID, and the federated /metrics aggregates equal the per-worker sums.
.PHONY: obs-fleet-smoke
obs-fleet-smoke:
	$(GO) test -count=1 -run '^TestStitchedTraceByteDeterminism$$' ./internal/fleet

# bench runs the layer microbenchmarks: the event kernel, TLB
# translation (hit and evicting walk) and crossbar sends. Compare the
# event-kernel lines against the committed baseline in
# BENCH_sim_engine.txt before merging engine changes.
.PHONY: bench
bench:
	$(GO) test -bench . -benchmem -run '^$$' ./internal/sim ./internal/mmu ./internal/interconnect

.PHONY: baseline
baseline:
	$(GO) test -bench . -benchmem -run '^$$' ./internal/sim | tee BENCH_sim_engine.txt

# bench-diff is the microbenchmark regression guard: rerun the engine
# benchmarks and compare against the committed baseline, warning on
# any metric more than 10% worse. Warn-only for timing (wall clock on
# a shared box is noisy); allocation metrics are deterministic, so
# treat a B/op or allocs/op warning as a real regression.
.PHONY: bench-diff
bench-diff:
	$(GO) test -bench . -benchmem -run '^$$' ./internal/sim > /tmp/dstore-bench-current.txt
	$(GO) run ./cmd/dstore-benchdiff BENCH_sim_engine.txt /tmp/dstore-bench-current.txt
