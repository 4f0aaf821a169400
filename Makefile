# LANDLORD reproduction build targets.

GO ?= go

.PHONY: all build vet test test-short race bench bench-guard fuzz check ha-chaos lint-metrics cover crash-test examples experiments clean

all: build vet lint-metrics test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# Full race-detector pass. Every package runs under -race — the
# concurrent request pipeline (core.ConcurrentManager, the server's
# handler fan-out, WAL group commit) makes data races a correctness
# bug anywhere, not just in the historically concurrent corners. The
# oracle-equivalence harness and soak are the heavyweight entries;
# the timeout gives them headroom on slow CI runners.
race:
	$(GO) test -race -timeout 20m ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Allocation regression guard for the interned hot path: the hit-heavy
# steady state (cached spec repeats against a warm cache) must run
# allocation-free, both on the serial Manager and on the
# ConcurrentManager the server runs. A fixed iteration count keeps the run cheap and
# deterministic; the guard fails the build the moment any per-request
# allocation sneaks back onto the hit path.
bench-guard:
	$(GO) test -run '^$$' -bench '^BenchmarkManager(Serial|Parallel)$$/^hit-heavy$$' -benchmem -benchtime 2000x . \
		| awk '/hit-heavy/ { allocs = $$(NF-1); print; if (allocs + 0 != 0) { print "bench-guard: " $$1 " allocates " allocs " allocs/op, want 0"; bad = 1; exit 1 } found++ } END { if (bad) exit 1; if (found != 2) { print "bench-guard: ran " found + 0 " of the 2 hit-heavy benchmarks"; exit 1 } }'

# Brief fuzzing pass over every fuzz target. Patterns are anchored:
# -fuzz is a regex, and an unanchored FuzzParse would also match
# FuzzSpecParse in the same package (go test refuses to fuzz two
# targets at once).
fuzz:
	$(GO) test ./internal/spec -fuzz '^FuzzParse$$' -fuzztime 30s
	$(GO) test ./internal/spec -fuzz '^FuzzSpecParse$$' -fuzztime 30s
	$(GO) test ./internal/config -fuzz '^FuzzConfigLoad$$' -fuzztime 30s
	$(GO) test ./internal/trace -fuzz '^FuzzLoad$$' -fuzztime 30s
	$(GO) test ./internal/pkggraph -fuzz '^FuzzLoad$$' -fuzztime 30s
	$(GO) test ./internal/shrinkwrap -fuzz '^FuzzUnpack$$' -fuzztime 30s
	$(GO) test ./internal/persist -fuzz '^FuzzWALDecode$$' -fuzztime 30s
	$(GO) test ./internal/spec -fuzz '^FuzzInternRoundTrip$$' -fuzztime 30s
	$(GO) test ./internal/spec -fuzz '^FuzzBitsetJaccard$$' -fuzztime 30s

# Short-budget invariant harness for every PR: the deterministic
# simulation suites (differential fast-vs-reference and the in-memory
# suite) and scaled-down soaks under the race detector, the mutant
# self-test (each of the ten seeded bugs — six Algorithm 1 clauses,
# the three fast-path mutants intern/popcount/lshmiss, plus the HA
# epoch-fencing mutant staleepoch — must be caught reproducibly; the
# fast-path three within the differential suite's 900 requests,
# staleepoch within the HA stage's first lease isolation), and one CLI
# chaos pass.
check:
	$(GO) test -race -short -count=1 ./internal/check
	$(GO) test -run 'TestMutants|TestMutantFailure' -count=1 ./internal/check
	$(GO) run ./cmd/landlord-check sim -seed 1
	$(GO) run ./cmd/landlord-check tracesim -seed 1
	$(GO) run ./cmd/landlord-check fleetchaos -seed 1
	$(GO) run ./cmd/landlord-check hachaos -seed 1

# High-availability chaos gate: the primary+standby failover harness
# under the race detector (two-tick promotion, recovered-state
# byte-identity, single acking primary per round, warm drain handoff,
# WAL replica equality), then one CLI pass with a shifted fault
# schedule.
ha-chaos:
	$(GO) test -race -count=1 -run TestHAChaos ./internal/check
	$(GO) run ./cmd/landlord-check hachaos -seed 1 -kill-phase 7

# Static metric-registration audit: the same family registered under
# two kinds or two help strings renders a /metrics exposition
# Prometheus rejects; the registry only catches it at runtime on paths
# that execute. Fails the build on any conflict.
lint-metrics:
	$(GO) run ./cmd/landlord-lint -root .

# Coverage profile across every package (atomic mode: the concurrent
# suites are the interesting part).
cover:
	$(GO) test -covermode=atomic -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -1

# Durability gauntlet: the persist fault-injection suite (every WAL
# truncation and bit-flip) plus the end-to-end kill -9 daemon test.
crash-test:
	$(GO) test -v -run 'TestCrashRecovery|TestTornTail|TestRecoverFallsBack|TestCheckpointCompaction' ./internal/persist
	$(GO) test -v -run TestDaemonSurvivesKill9 ./cmd/landlordd

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/specscan
	$(GO) run ./examples/site-service
	$(GO) run ./examples/hep-pipeline
	$(GO) run ./examples/alpha-sweep
	$(GO) run ./examples/multisite

# Regenerate every paper artifact at full scale into results/.
experiments:
	$(GO) build -o bin/landlord-sim ./cmd/landlord-sim
	mkdir -p results
	bin/landlord-sim repo       | tee results/repo.txt
	bin/landlord-sim table2     | tee results/table2.txt
	bin/landlord-sim fig3       | tee results/fig3.txt
	bin/landlord-sim fig4       | tee results/fig4.txt
	bin/landlord-sim fig5       | tee results/fig5.txt
	bin/landlord-sim fig6 -reps 5 | tee results/fig6.txt
	bin/landlord-sim fig7       | tee results/fig7.txt
	bin/landlord-sim fig8       | tee results/fig8.txt
	bin/landlord-sim baselines  | tee results/baselines.txt
	bin/landlord-sim cluster    | tee results/cluster.txt
	bin/landlord-sim drift      | tee results/drift.txt
	bin/landlord-sim dedup      | tee results/dedup.txt
	bin/landlord-sim latency    | tee results/latency.txt

clean:
	rm -rf bin
