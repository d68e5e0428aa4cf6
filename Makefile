# Tier-1 verification for the MiL simulator. `make verify` is the gate a
# change must pass: build, vet, the full test suite, and the race detector.
# The sweep engine runs simulations concurrently, so the race pass first
# targets the packages that carry the concurrency (experiments, sim,
# workload) and then sweeps the rest of the tree.

GO ?= go

.PHONY: all build vet test race verify kernelcheck registrycheck benchvet cover fuzz bench benchdiff profile golden experiments clean

all: verify

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/experiments/ ./internal/sim/ ./internal/workload/ ./internal/obs/ ./internal/trace/
	$(GO) test -race ./...

verify: build vet test race kernelcheck registrycheck benchvet

# The kernel-layer referee, run explicitly as part of verify: the
# differential fuzz seed corpus (word-parallel counters vs bit-at-a-time
# references), the probe/scratch equivalence and zero-alloc checks, and the
# low-weight-code referee (TestVLWCAgainstOptimalReference) with its
# width, frequency and layout checks.
kernelcheck:
	$(GO) test -run 'FuzzKernelEquivalence|TestCostZerosEquivalence|TestEncodeIntoMatchesEncode|TestSteadyStateZeroAllocs|TestVLWC|TestOptMem|TestStaticLWC|TestZAD|TestDecodeRejectsForeignDrivenMask' -count=1 ./internal/code/

# The registry-drift referee: the scheme registry must keep every
# pre-registry contract byte for byte — timing classes against the frozen
# legacy switch, codec parity with code.ByName, the front-end/cluster key
# golden for all schemes, and the epoch-feedback zero-cost gate.
registrycheck:
	$(GO) test -count=1 ./internal/scheme/
	$(GO) test -run 'TestFrontEndKeyGolden' -count=1 ./internal/sim/
	$(GO) test -run 'TestEpochFeedback|TestEpochLength' -count=1 ./internal/memctrl/

# The benchmark (perfbench/) is a module of its own that calls the codec
# API; nothing else compiles it, so an API change that breaks it fails here.
benchvet:
	cd perfbench && $(GO) vet ./...

# Coverage gate: one instrumented run of the full suite, the repo-wide
# statement coverage (CI publishes it in the job summary), and a hard
# >= 90% floor on internal/trace — the record/replay container and the
# cluster/LRU store must stay measurably tested, since a quiet decode or
# eviction bug there corrupts or silently discards every replay.
cover:
	$(GO) test -coverprofile=cover.out ./...
	@awk 'NR>1 { total+=$$2; if ($$3>0) hit+=$$2; \
	             if ($$1 ~ /^mil\/internal\/trace\//) { t+=$$2; if ($$3>0) th+=$$2 } } \
	     END { printf "repo-wide statement coverage: %.1f%%\n", 100*hit/total; \
	           pct = t ? 100*th/t : 0; \
	           printf "internal/trace statement coverage: %.1f%%\n", pct; \
	           if (pct < 90) { print "internal/trace coverage is below the 90% floor"; exit 1 } }' cover.out

# Short fuzz passes over the codec round-trip, corrupted-decode, kernel
# equivalence, and trace-container properties; CI-sized, not exhaustive.
fuzz:
	$(GO) test -run=NONE -fuzz=FuzzRoundTrip -fuzztime=30s ./internal/code/
	$(GO) test -run=NONE -fuzz=FuzzDecodeCorrupted -fuzztime=30s ./internal/code/
	$(GO) test -run=NONE -fuzz=FuzzDecodeDims -fuzztime=30s ./internal/code/
	$(GO) test -run=NONE -fuzz=FuzzKernelEquivalence -fuzztime=30s ./internal/code/
	$(GO) test -run=NONE -fuzz=FuzzTraceRoundTrip -fuzztime=30s ./internal/trace/

# The repo benchmark's three workloads (perfbench/README.md; the last line
# of each run is its JSON report), the replay fast-path benchmark with
# allocation counts (BenchmarkReplay must stay decisively under
# BenchmarkFreshSim — DESIGN.md §5.12), then the go test benchmarks for
# spot numbers.
bench:
	bash perfbench/run.sh --workload sweep-fresh --seed 0 --seconds 30 --trace 0
	bash perfbench/run.sh --workload sweep-cached --seed 0 --seconds 30 --trace 0
	bash perfbench/run.sh --workload cell-long --seed 0 --seconds 30 --trace 0
	$(GO) test -run=NONE -bench 'BenchmarkReplay|BenchmarkFreshSim' -benchmem -benchtime=1x ./internal/sim/
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# Before/after comparison of the codec micro-benchmarks. Usage: run
# `make benchdiff` on the base commit (seeds bench.old.txt), switch to the
# change, run it again; it diffs via benchstat when installed and otherwise
# leaves the raw files side by side.
BENCHPKGS = ./internal/code/
benchdiff:
	@if [ -f bench.old.txt ]; then \
		$(GO) test -run=NONE -bench 'BenchmarkEncode|BenchmarkDecode|BenchmarkCostZeros' -benchmem -count=6 $(BENCHPKGS) | tee bench.new.txt; \
		if command -v benchstat >/dev/null 2>&1; then \
			benchstat bench.old.txt bench.new.txt; \
		else \
			echo "benchdiff: benchstat not installed; compare bench.old.txt vs bench.new.txt by hand"; \
		fi \
	else \
		$(GO) test -run=NONE -bench 'BenchmarkEncode|BenchmarkDecode|BenchmarkCostZeros' -benchmem -count=6 $(BENCHPKGS) | tee bench.old.txt; \
		echo "benchdiff: baseline saved to bench.old.txt; re-run after your change"; \
	fi

# CPU-profile one serial pass of the reduced sweep and print the top-10
# cumulative functions. Profiles land under the gitignored prof/ directory,
# never the repo root.
profile:
	mkdir -p prof
	$(GO) test -run=NONE -bench=BenchmarkSweepSerial -benchtime=1x -cpuprofile prof/cpu.pprof -memprofile prof/mem.pprof ./internal/experiments/
	$(GO) tool pprof -top -cum -nodecount=10 prof/cpu.pprof

# Re-bless the golden snapshots after an intentional model change: the
# experiment tables (internal/experiments/testdata/golden/), the
# observability artifacts (internal/sim/testdata/obs/), and the
# front-end key snapshot (internal/sim/testdata/keys/). Review the
# diffs; a keys change orphans recorded trace streams.
golden:
	$(GO) test ./internal/experiments/ -run TestGolden -update
	$(GO) test ./internal/sim/ -run 'TestObsGolden|TestFrontEndKeyGolden' -update

# Regenerate EXPERIMENTS.md (all figures and tables; slow).
experiments:
	$(GO) run ./cmd/milexp -out EXPERIMENTS.md

clean:
	$(GO) clean ./...
