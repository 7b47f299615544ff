GO ?= go
FUZZTIME ?= 5s

.PHONY: check fmt vet build test race bench bench-gate stress fuzz-smoke coverage differential combiner safety sampling scenarios scenarios-short

check: fmt vet build race fuzz-smoke sampling

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench . -benchtime 0.5s -run xxx .

# Benchmark-regression gate: run the key hot-path benchmarks (count=4
# best-of, pinned -cpu 1,4,8) and compare against the committed
# BENCH_5.json — fail on >20% ns/op or any allocs/op regression. Seeds
# the baseline when it is absent; re-record intentional changes with
#   go run ./cmd/benchgate -write
bench-gate:
	$(GO) run ./cmd/benchgate

# Concurrency-stress suite: N emitting goroutines racing install/
# uninstall/flush with exact tuple accounting, plus the sharded
# accumulator's exactness/ordering/drop-accounting suite — under the
# race detector, twice, to shake out interleavings.
stress:
	$(GO) test ./internal/agent ./internal/advice -race -count=2 -run 'TestStress|TestSharded'

# Replay the checked-in fuzz corpora, then give each target a short live
# fuzzing burst. FUZZTIME=2m fuzz-smoke for a deeper local run.
fuzz-smoke:
	$(GO) test ./internal/tuple ./internal/wire ./internal/baggage ./internal/query -run '^Fuzz'
	@set -e; for t in FuzzDecodeValue FuzzDecodeTuple FuzzValueRoundTrip; do \
		$(GO) test ./internal/tuple -run '^$$' -fuzz "^$$t$$" -fuzztime $(FUZZTIME); done
	@set -e; for t in FuzzUnmarshal FuzzDecodeExpr; do \
		$(GO) test ./internal/wire -run '^$$' -fuzz "^$$t$$" -fuzztime $(FUZZTIME); done
	@set -e; for t in FuzzDecodeBaggage; do \
		$(GO) test ./internal/baggage -run '^$$' -fuzz "^$$t$$" -fuzztime $(FUZZTIME); done
	@set -e; for t in FuzzParseQuery; do \
		$(GO) test ./internal/query -run '^$$' -fuzz "^$$t$$" -fuzztime $(FUZZTIME); done

# Full-suite statement coverage, failing if the total drops below the
# floor recorded in coverage.baseline.
coverage:
	$(GO) test ./... -coverprofile=cover.out
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ {sub(/%/,"",$$3); print $$3}'); \
	floor=$$(cat coverage.baseline); \
	echo "total coverage: $$total% (floor: $$floor%)"; \
	awk -v t="$$total" -v f="$$floor" 'BEGIN { exit (t+0 < f+0) ? 1 : 0 }' || \
		{ echo "coverage dropped below the recorded baseline"; exit 1; }

# The ptbench scenario library at the reduced (<=64-host) sizing, under
# the race detector, plus the byte-identical same-seed report check.
# Replay a failure with the printed `go run ./cmd/ptbench ...` command.
scenarios-short:
	$(GO) test ./internal/scenario -race -run 'TestAllScenariosShort|TestReportDeterminism'

# The full scenario library on thousand-host topologies — the ptbench
# acceptance run (about half a minute of wall time).
scenarios:
	$(GO) run ./cmd/ptbench -all

# The differential query-correctness sweeps (plain and budgeted) under
# the race detector, in both topologies: flat agent→frontend merge and
# the 2-tier combiner tree, which must agree byte-for-byte.
differential:
	PT_DIFF_CASES=500 $(GO) test ./pivot -race -run 'TestDifferentialPipelineMatchesOracle|TestBudgetedDifferentialTruncationAccounted|TestDifferentialTreeMatchesFlat|TestBudgetedDifferentialTreeTruncationAccounted'

# The combiner-tier suite: partition/rendezvous unit tests, tree wiring,
# tenant fair-share control plane, combiner-kill chaos, and the tree
# differential sweeps at a reduced case count — all under -race.
combiner:
	$(GO) test ./internal/combiner ./internal/cluster ./internal/core -race
	$(GO) test ./pivot -race -count=2 -run 'TestCombinerKillRehomesAndConservesTuples'
	PT_DIFF_CASES=120 $(GO) test ./pivot -race -run 'TestDifferentialTreeMatchesFlat|TestBudgetedDifferentialTreeTruncationAccounted'

# The request-level sampling suite: the 300-case sampled differential
# sweep against the statistical oracle, rate-1.0 byte-identity with the
# exact path, the error-vs-rate estimator sweep, the happened-before
# join decision-atomicity property tests, and the rate-clamp/AIMD
# controller units — all under the race detector. Failures print the
# seed; replay with go test ./pivot -run <Test> -seed=<N>.
sampling:
	$(GO) test ./pivot -race -run 'TestSampledDifferentialWithinBounds|TestSampledRateOneMatchesExactBytes|TestSampledErrorVsRate|TestHBJoinSamplingAtomicityTable|TestHBJoinSamplingAtomicityQuick'
	$(GO) test ./internal/sampling -race

# The safety-valve chaos suite: advice quarantine, frontend-kill lease
# expiry, budget exhaustion accounting, and the governance unit tests —
# repeated under the race detector to shake out ordering assumptions.
safety:
	$(GO) test ./pivot -race -count=2 -run 'TestPanickingAdviceIsQuarantined|TestQuarantineNoticeCrossesBus|TestKilledFrontendLeaseExpiry|TestBudgetExhaustionAccounted|TestLeaseRenewalKeepsInProcessQueryAlive'
	$(GO) test ./internal/agent ./internal/advice ./internal/baggage ./internal/tracepoint -race -count=2
