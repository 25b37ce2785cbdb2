# Convenience targets for the PAO reproduction. Everything is plain `go`
# underneath; see README.md.

GO ?= go

.PHONY: all build test vet experiments \
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
# fresh analysis of the mutated design, cache-on and cache-off, with the same
# class membership and instance bindings (TestECOFuzzDifferential), plus the
# metamorphic invariants (site-move == fresh, apply-then-revert == original,
# disjoint-op order independence), pivot independence of every class's
# answers (fresh and after an ECO script), the incremental failed-pin recount
# against a full check, the row-local cluster scoping against the full
# d.Clusters() scan and the session's kept design hash against a one-shot
# DesignHash (TestECOClusterScopeMatchesFullScan), the /v1/eco server path
# and its answered design hash under the race detector, and the via-cache
# unit tests (mutation re-keys a drop, shard cap, alloc-free hits).
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
# breaker/readyz lifecycle, and corrupt-snapshot fallback; the cliutil tests
# cover the signal-aware contexts, retries and the design loader.
serve-smoke:
	$(GO) test -race -v -run 'TestServeSmoke' ./cmd/paoserve
	$(GO) test -race ./internal/serve ./internal/cliutil

# Telemetry smoke campaign under the race detector: boot paoserve with
# trace-sample=1, run concurrent queries (correlation IDs echoed) while
# scraping /metrics — every scrape must parse under the strict Prometheus
# text-format checker — then audit a live decision via /v1/access/explain and
# check the slow log's trace exemplars. The obs package tests cover the one
# registry (labeled families, type and arity conflicts), the exposition
# writer and its naming rule, the strict checker, and the -metrics-listen
# endpoint, whose scrapes read the registry's counters live while a writer
# counts; the cliutil tests cover the logger's line shape and levels, and the
# serve tests the sampler, correlation IDs, slow-log ring and the DRC
# counters every re-analysis and ECO move adds to /metrics. The per-call
# allocation tests prove the two registry lookups a served request makes
# allocate nothing (TestRegistryLookupsAllocFree), and that the kernels
# Steps 1-3 run stay allocation-free: the warm via-verdict hit, region query
# and count-only stub check, counting into registry series as an analyzer's
# engines do (TestViaCacheHitAllocFree, TestQueryMetalCtxAllocFree,
# TestMetalRectCountAllocFree), the via-pair predicate
# (TestViaPairCleanDistance), the polygon union
# (TestUnionScratchNoAllocsWarm), a warm scratch cell engine Reset and
# refilled with another class's shapes (TestCellScratchRefillAllocFree), a
# warm Step-3 cluster DP (TestSelectForClusterAllocFree) and the net index
# (TestNetOfAllocFree). The size gates pin the DRC engine's per-object record
# at 24 pointer-free bytes (TestEngineRecordSize), a new QueryCtx at what it
# allocates on an empty engine, however many objects the engine holds
# (TestNewQueryCtxAllocsFlat), and the failed-pin ledger's per-terminal entry
# at 56 bytes (TestLedgerEntrySize).
telemetry-smoke:
	$(GO) test -race -v -run 'TestTelemetrySmoke' ./cmd/paoserve
	$(GO) test -race ./internal/obs ./internal/cliutil ./internal/serve
	$(GO) test -v -run 'AllocFree|NoAllocsWarm|TestViaPairCleanDistance|TestEngineRecordSize|TestNewQueryCtxAllocsFlat|TestLedgerEntrySize' ./internal/obs ./internal/drc ./internal/pao ./internal/geom

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
# identical to the single-process run and DRC counters where the work ran
# (the coordinator's failed-pin recount, each worker's shards).
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

# Coverage over the core analysis/check packages, failing below a 70% floor.
# Leaves coverage.out and the per-function table coverage.txt behind.
cover:
	$(GO) test -coverprofile=coverage.out -coverpkg=./internal/pao,./internal/drc,./internal/oracle \
		./internal/pao ./internal/drc ./internal/oracle ./internal/difftest
	$(GO) tool cover -func=coverage.out > coverage.txt
	@total=$$(awk '/^total:/ {sub(/%/, "", $$3); print int($$3)}' coverage.txt); \
	echo "total coverage: $${total}%"; \
	if [ -z "$$total" ] || [ "$$total" -lt 70 ]; then \
		echo "coverage $${total}% is below the 70% floor for pao/drc/oracle" >&2; \
		exit 1; \
	fi

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
	rm -f coverage.out coverage.txt
