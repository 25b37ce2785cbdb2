# Convenience targets for the PAO reproduction. Everything is plain `go`
# underneath; see README.md.

GO ?= go

.PHONY: all build test vet bench-json bench-check bench-cold bench-eco experiments \
	experiments-full examples clean difftest eco-difftest golden-update \
	fuzz-smoke cover faultinject serve-smoke telemetry-smoke tenant-smoke \
	dist-difftest dist-smoke

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Differential DRC oracle + metamorphic invariants under the race detector:
# thousands of seeded via-drop/spacing queries replayed through the engine and
# the naive reference checker, failing on any verdict divergence.
difftest:
	$(GO) test -race -v -run 'TestDifferential|TestTranslation|TestMirror|TestWorkers|TestECOPhaseMove' ./internal/difftest

# Differential ECO harness: seeded ECO scripts (moves/swaps/inserts/deletes)
# applied to a resident session must produce byte-identical snapshots to a
# fresh analysis of the mutated design, cache-on and cache-off, plus the
# metamorphic invariants (site-move == fresh, apply-then-revert == original,
# disjoint-op order independence), pivot independence of every class's
# answers (fresh and after an ECO script), the incremental failed-pin recount
# against a full check, the /v1/eco server path under the race detector, and
# the scoped via-cache invalidation unit tests.
eco-difftest:
	$(GO) test -v -run 'TestECO|TestPivotIndependence' ./internal/difftest
	$(GO) test -race -run 'TestServeECO' ./internal/serve
	$(GO) test -run 'TestECO' ./internal/pao
	$(GO) test -run 'TestViaCache' ./internal/drc

# Fault-injection campaign under the race detector: the injector's own unit
# tests plus the pipeline-level quarantine/cancellation/respawn properties
# (K panics -> exactly K failed classes with byte-identical survivors,
# deadline -> partial result, worker death -> respawn) and the metamorphic
# fault tests (cancel-then-rerun equals clean, worker counts agree under
# injected faults).
faultinject:
	$(GO) test -race ./internal/faultinject
	$(GO) test -race -v -run 'TestFault' ./internal/pao ./internal/difftest

# Oracle-server smoke campaign under the race detector: start paoserve on a
# suite testcase with one class quarantined by an injected fault, run
# concurrent queries (degraded class answers 200 + degraded:true, never 500),
# deliver a real SIGTERM (drain + final snapshot, exit 0), then warm-restart
# from the snapshot without recomputing and require byte-identical answers.
# The serve package tests cover shedding (429/503 + Retry-After), the
# breaker/readyz lifecycle, and corrupt-snapshot fallback.
serve-smoke:
	$(GO) test -race -v -run 'TestServeSmoke' ./cmd/paoserve
	$(GO) test -race ./internal/serve

# Telemetry smoke campaign under the race detector: boot paoserve with
# trace-sample=1, run concurrent queries (correlation IDs echoed) while
# scraping /metrics — every scrape must parse under the strict Prometheus
# text-format checker — then audit a live decision via /v1/access/explain and
# check the slow log's trace exemplars. The telemetry package tests cover the
# exposition writer, histogram merge rules, logger, sampler and slow-log ring;
# bench-check proves the nil-by-default hooks stay alloc-neutral.
telemetry-smoke:
	$(GO) test -race -v -run 'TestTelemetrySmoke' ./cmd/paoserve
	$(GO) test -race ./internal/telemetry ./internal/serve
	$(GO) run ./cmd/paobench -q -out /tmp/bench-current.json -compare BENCH_PR10.json

# Multi-tenant smoke campaign under the race detector: one paoserve process
# serving three designs (one at boot, two registered over POST /v1/designs), a
# flood tenant storming one design's deliberately tiny bulkhead while a steady
# tenant queries the other two. The storm must shed strictly inside its
# bulkhead (other designs all 200 and ready), the merged /metrics must parse
# strictly with per-design/per-tenant labels, an explicit evict + lazy warm
# restart must answer byte-identically, and SIGTERM must snapshot every
# resident design. The serve package tests cover DRR fairness, eviction
# round-trips, registration hardening and the register/evict/query/ECO chaos.
tenant-smoke:
	$(GO) test -race -v -run 'TestTenantSmoke' ./cmd/paoserve
	$(GO) test -race -run 'TestManager|TestBulkhead|TestEvict|TestLRU|TestWarmWait|TestFair|TestFlood|TestTenant|TestConcurrentRegisterEvictQueryECO' ./internal/serve

# Distributed-analysis acceptance campaign under the race detector: the
# coordinator/worker shard-out must produce snapshots byte-identical to the
# single-process run — across three testcases with the memoization caches on
# and off, with network faults tearing at the wire (dropped dispatches,
# corrupted responses, jittered delays), and with a real worker subprocess
# SIGKILLed mid-run (shards relocate, health stays clean). Also covers the
# consistent-hash ring properties, the frame/partial-snapshot wire format,
# and the pao-level slice/merge round trip.
dist-difftest:
	$(GO) test -race -v ./internal/dist
	$(GO) test -race -v -run 'TestDistributedSingleProcess' ./internal/difftest
	$(GO) test -race -run 'TestPartial|TestAnalyzeSelect|TestAnalyzeClasses|TestSelectClusters' ./internal/pao

# Distributed smoke: boot a real paoworker (ready probe, SIGTERM drain) and
# run paorun -distributed against in-process shard workers, requiring reports
# identical to the single-process run.
dist-smoke:
	$(GO) test -race -v -run 'TestDistSmoke' ./cmd/paoworker ./cmd/paorun

# Re-pin the golden per-testcase result snapshots after an intentional
# behaviour change (testdata/golden/*.json).
golden-update:
	$(GO) test ./internal/difftest -update -run TestGolden

# Short coverage-guided fuzz of each parser and of the snapshot decoder,
# seeded from testdata/fuzz. Snapshot inputs are kilobytes long, and
# minimizing each new one without a bound would use up the whole run.
fuzz-smoke:
	$(GO) test -fuzz=FuzzParse -fuzztime=10s ./internal/lef
	$(GO) test -fuzz=FuzzParse -fuzztime=10s ./internal/def
	$(GO) test -fuzz=FuzzParse -fuzztime=10s ./internal/guide
	$(GO) test -fuzz=FuzzRegisterRequest -fuzztime=10s ./internal/serve
	$(GO) test -fuzz=FuzzDecodeSnapshot -fuzztime=10s -fuzzminimizetime=200x ./internal/pao

# Coverage over the core analysis/check packages (the CI floor gates on this).
cover:
	$(GO) test -coverprofile=coverage.out -coverpkg=./internal/pao,./internal/drc,./internal/oracle \
		./internal/pao ./internal/drc ./internal/oracle ./internal/difftest
	$(GO) tool cover -func=coverage.out | tail -1

# Measure the Step 1/2/3 hot paths with the memoization layers on and off and
# write the machine-readable report checked in as the perf baseline.
bench-json:
	$(GO) run ./cmd/paobench -out BENCH_PR10.json

# CI regression gate: re-measure and fail on >15% regression vs the
# checked-in baseline (machine-independent metrics only; add -gate-ns on a
# quiet dedicated host to also gate wall-clock time).
bench-check:
	$(GO) run ./cmd/paobench -q -out /tmp/bench-current.json -compare BENCH_PR10.json

# Cold-path profile: only the uncached scenario variants — the pure query-
# core and check-core cost with every memo layer off. Prints to stdout; not
# gated (cold reports carry no cached metrics to compare).
bench-cold:
	$(GO) run ./cmd/paobench -cold

# ECO re-analysis scoping report: dirty-class/cluster counts for a single
# move, the resident-session apply loop vs a fresh full run, and the
# scoped-vs-wholesale via-cache eviction fractions (BENCH_PR7.json).
bench-eco:
	$(GO) run ./cmd/paobench -scale 0.01 -eco-out BENCH_PR7.json

# Laptop-scale experiment sweep (~4 minutes).
experiments:
	$(GO) run ./cmd/paoexp -exp all -scale 0.05

# Full Table-I-scale sweep (~15 minutes, several GB of RAM for test10).
experiments-full:
	$(GO) run ./cmd/paoexp -exp table1 -scale 1.0
	$(GO) run ./cmd/paoexp -exp 1      -scale 1.0
	$(GO) run ./cmd/paoexp -exp 2      -scale 1.0
	$(GO) run ./cmd/paoexp -exp 14nm   -scale 1.0
	$(GO) run ./cmd/paoexp -exp 3      -scale 0.005
	$(GO) run ./cmd/paoexp -exp ablate -scale 0.2

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/ispd18flow
	$(GO) run ./examples/advanced14nm
	$(GO) run ./examples/routerflow
	$(GO) run ./examples/placementloop
	$(GO) run ./examples/figures -out /tmp/pao-figures

clean:
	$(GO) clean ./...
