# The gate's commands, written once: every step of .github/workflows/ci.yml
# calls one of these targets, so "works locally" and "passes CI" are the
# same statement.

GO ?= go

.PHONY: check build vet fmt-check lint escapes escapes-baseline test loadgen-test test-race bench bench-smoke bench-json bench-compare bit-identity profile fmt fuzz-smoke fault-smoke serve-smoke fleet-smoke fastcap-smoke

## check: the full gate — tier-1 verify + vet + gofmt + coscale-lint +
## escape-analysis gate + the load generator's own module tests + the
## bit-identity tests (fleet rebalancer, frontier walk, capped walk and its
## replay, evaluator against the direct model, comparison-policy sweep,
## Offline against its reference, simulation goldens)
check: build vet fmt-check lint escapes test loadgen-test bit-identity

build:
	$(GO) build ./...

test:
	$(GO) test ./...

## loadgen-test: the end-to-end benchmark library's tests, a module of its
## own that `go test ./...` does not reach — including the smoke test whose
## traced serial replica must match Rebalancer.Epoch bit for bit
loadgen-test:
	$(GO) -C internal/loadgen test ./...

## test-race: full suite under the race detector
test-race:
	$(GO) test -race ./...

## bench: one iteration of every benchmark (compile + smoke, not timing)
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

## bench-smoke: the hot-path regression gate — alloc-budget tests, one
## iteration of the headline search/epoch benchmarks, and a short
## coscale-bench diff against the committed baseline (run by CI's
## bench-smoke job)
bench-smoke:
	$(GO) test -run 'ZeroAlloc|DeterministicUnderReuse|GoldenBitIdentical' -count=1 . ./internal/sim ./internal/fastcap
	GOMAXPROCS=1 $(GO) test -run 'ZeroAlloc|DeterministicUnderReuse|GoldenBitIdentical' -count=1 . ./internal/sim ./internal/fastcap
	$(GO) test -bench 'BenchmarkSearch16Cores|BenchmarkEpochSimulation' -benchtime=1x -benchmem -run='^$$' .
	$(MAKE) bench-compare

## bit-identity: the determinism gate behind DESIGN.md §13 — the fleet
## rebalancer's per-node fan-out against its serial replica, its frontier
## and decision reuse against a rebuild-everything replica, its idle-lane
## controller re-walks against that replica at GOMAXPROCS 1 to 8, the frontier
## walk against its reference walk, PowerCap's capped walk and its trail
## replay against their reference oracle, CoScale's eligibility-list sorts
## against the comparison sorts they replace, the joint solver against its
## naive every-pass loop (DESIGN.md §10), the memoized evaluator against
## the direct reference model (DESIGN.md §10), the comparison policies'
## table-backed core sweep against its direct reference and Offline's
## trimmed decisions against the direct refOffline on recorded traffic
## (DESIGN.md §4), every slack-keeping controller's limits and slack against one reference ledger
## (DESIGN.md §4), the simulation goldens of every policy (with migration,
## fault injection, a binding power cap and the hardened watchdog among
## them) and the engine's exact solve and true-state reuse counts
## (DESIGN.md §7), under the race detector at both GOMAXPROCS=1 and the
## machine default, so neither scheduler width, reuse nor a shared search
## can reach an assignment bit
bit-identity:
	GOMAXPROCS=1 $(GO) test -race -count=1 -run 'RebalancerMatchesSerialReplica|RebalancerReuseMatchesRebuild|RebalancerRewalkMatchesSerialReplica|BuilderMatchesReferenceWalk' ./internal/fastcap
	$(GO) test -race -count=1 -run 'RebalancerMatchesSerialReplica|RebalancerReuseMatchesRebuild|RebalancerRewalkMatchesSerialReplica|BuilderMatchesReferenceWalk' ./internal/fastcap
	GOMAXPROCS=1 $(GO) test -race -count=1 -run 'PowerCapMatchesReferenceOracle|PowerCapReplayMatchesReferenceOracle|CapWalkEndsAtFloor|EligibilitySortsMatchComparator' ./internal/core
	$(GO) test -race -count=1 -run 'PowerCapMatchesReferenceOracle|PowerCapReplayMatchesReferenceOracle|CapWalkEndsAtFloor|EligibilitySortsMatchComparator' ./internal/core
	GOMAXPROCS=1 $(GO) test -race -count=1 -run 'SolverMatchesNaiveLoop' ./internal/perf
	$(GO) test -race -count=1 -run 'SolverMatchesNaiveLoop' ./internal/perf
	GOMAXPROCS=1 $(GO) test -race -count=1 -run 'TablesBitIdenticalToDirect|CoreSweepMatchesReference|BaselinePoliciesInfeasibleFallback|OfflineMatchesReference|ControllersKeepSlackAlike' ./internal/policy
	$(GO) test -race -count=1 -run 'TablesBitIdenticalToDirect|CoreSweepMatchesReference|BaselinePoliciesInfeasibleFallback|OfflineMatchesReference|ControllersKeepSlackAlike' ./internal/policy
	GOMAXPROCS=1 $(GO) test -race -count=1 -run 'GoldenBitIdentical|EngineReusesUnchangedGroundTruth' ./internal/sim
	$(GO) test -race -count=1 -run 'GoldenBitIdentical|EngineReusesUnchangedGroundTruth' ./internal/sim

## bench-json: regenerate BENCH_baseline.json (ns/op, allocs/op, figure
## wall-times; see DESIGN.md §7 for the schema)
bench-json:
	$(GO) run ./cmd/coscale-bench -out BENCH_baseline.json

## bench-compare: diff a fresh (short) coscale-bench run against the
## committed baseline and fail on regression. Allocation counts gate
## strictly; ns/op gates at 4x to absorb machine differences and the short
## benchtime's noise (cmd/coscale-bench documents the policy).
bench-compare:
	$(GO) run ./cmd/coscale-bench -benchtime 100ms -figure-budget 2000000 \
		-threshold 4 -compare BENCH_baseline.json

## profile: CPU and allocation profiles of the headline benchmarks
## (inspect with `go tool pprof cpu.out` / `go tool pprof mem.out`)
profile:
	$(GO) run ./cmd/coscale-bench -cpuprofile cpu.out -memprofile mem.out -out /dev/null
	@echo "wrote cpu.out and mem.out; inspect with: go tool pprof cpu.out"

## fuzz-smoke: a short burst of every native fuzz target (go allows one
## -fuzz target per invocation, hence the separate runs)
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test ./internal/freq -run '^$$' -fuzz '^FuzzNewLadder$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/freq -run '^$$' -fuzz '^FuzzNewLadderSteps$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace -run '^$$' -fuzz '^FuzzProfileValidate$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace -run '^$$' -fuzz '^FuzzLookup$$' -fuzztime $(FUZZTIME)

## fault-smoke: the fault-injection and graceful-degradation suite under the
## race detector (run by CI's fault-smoke job)
fault-smoke:
	$(GO) test -race ./internal/fault
	$(GO) test -race -run 'Fault|Hardened|ErrorTolerance' ./internal/sim ./internal/policy ./internal/experiments

## serve-smoke: the serving-layer acceptance suite under the race detector —
## golden bit-identity vs the experiments runner, queue overflow → 429,
## mid-stream cancellation freeing the worker slot, cache hits in /metrics,
## and a real boot/SIGTERM drain of cmd/coscale-serve (run by CI's
## serve-smoke job)
serve-smoke:
	$(GO) test -race -count=1 ./internal/server ./internal/cache ./internal/buildinfo ./cmd/coscale-serve

## fleet-smoke: the fault-tolerant orchestration suite under the race
## detector — the seeded chaos e2e (a worker killed mid-sweep, dropped
## heartbeats, cut streams; results bit-identical to the single-node runner),
## coordinator crash/restart recovery from the journal with zero
## recomputation, torn-tail journal recovery, and the lease/ring/backoff/
## chaos unit tests, and the fleet package again at GOMAXPROCS=1, since
## event-driven dispatch makes goroutine interleavings matter (run by CI's
## fleet-smoke job; see DESIGN.md §12)
fleet-smoke:
	$(GO) test -race -count=1 ./internal/fleet ./cmd/coscale-fleet
	GOMAXPROCS=1 $(GO) test -race -count=1 ./internal/fleet

## fastcap-smoke: the fleet-scale power-capping suite under the race
## detector — the fastcap allocator/frontier/rebalancer property tests
## (Float64bits-identical allocations across replays and node orderings,
## budget conservation, allocation-free steady state, the per-node fan-out
## matching a serial replica, frontier/decision reuse matching a full
## rebuild and frontiers matching the reference walk, at GOMAXPROCS=1 and
## the default) plus a
## reduced-grid run of the -exp fastcap cap-event experiment (run by CI's
## fastcap-smoke job; see DESIGN.md §13)
fastcap-smoke:
	$(GO) test -race -count=1 ./internal/fastcap
	GOMAXPROCS=1 $(GO) test -race -count=1 -run 'RebalancerMatchesSerialReplica|RebalancerReuseMatchesRebuild|RebalancerRewalkMatchesSerialReplica|BuilderMatchesReferenceWalk' ./internal/fastcap
	$(GO) test -race -count=1 -run 'TestFastCap' ./internal/experiments
	$(GO) run -race ./cmd/coscale-experiments -exp fastcap -fastcap-nodes 3 -fastcap-epochs 12

vet:
	$(GO) vet ./...

## fmt-check: fail if any file needs gofmt (fmt rewrites in place)
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

fmt:
	gofmt -w .

## lint: the domain-invariant analyzers, per-package and interprocedural
## (see internal/lint)
lint:
	$(GO) run ./cmd/coscale-lint ./...

## escapes: the escape-analysis regression gate — compiler heap escapes in
## the transitive //hot:path closure vs ESCAPES_baseline.json
escapes:
	$(GO) run ./cmd/coscale-lint -escapes

## escapes-baseline: re-record ESCAPES_baseline.json after a reviewed
## change to hot-path allocation behaviour
escapes-baseline:
	$(GO) run ./cmd/coscale-lint -escapes -update
