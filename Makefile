GO ?= go

.PHONY: all build test race bench perf perf-compare figures lint clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# internal/core alone takes 10-12 minutes under the race detector on a
# 2-core box, past go test's default per-binary timeout; the longer
# timeout keeps every test in the run (no -short).
race:
	$(GO) test -race -timeout 40m ./...

# Host-performance microbenchmarks (see docs/PERF.md). Writes the raw
# `go test -bench` output to bench_current.txt and records it as
# BENCH_<date>[-<BENCH_TAG>].json (BENCH_TAG=pr12 names the ledger row
# after its PR). The speedup columns compare against BENCH_BASELINE, a
# previous raw output or BENCH_*.json; left empty, benchdiff picks the
# newest checked-in BENCH_*.json. -p 1 runs one package's benchmark
# binary at a time (side by side on a small box they slow each other
# and a row's cells drift by up to 3x), and benchdiff keeps the median
# of the three runs of each benchmark (~8 min in all).
BENCH_DATE := $(shell date +%F)
BENCH_BASELINE ?=
BENCH_TAG ?=

bench:
	$(GO) test -p 1 -run '^$$' -bench=. -benchmem -count=3 ./... > bench_current.txt || (cat bench_current.txt; exit 1)
	$(GO) run ./tools/benchdiff $(if $(BENCH_BASELINE),-old $(BENCH_BASELINE)) -new bench_current.txt -json BENCH_$(BENCH_DATE)$(if $(BENCH_TAG),-$(BENCH_TAG)).json

# The repository benchmark (BENCHMARK.json, benchmarks/README.md): six
# workloads on both clocks into benchmarks/out/result.json (call
# benchmarks/run.sh directly for -reps/-seed). perf-compare applies the
# regression bounds and the lockstep exactness check to two result
# files.
perf:
	benchmarks/run.sh

perf-compare:
	@test -n "$(A)" -a -n "$(B)" || { echo "usage: make perf-compare A=old.json B=new.json"; exit 2; }
	benchmarks/run.sh -compare $(A) $(B)

figures:
	$(GO) run ./cmd/xbgas-bench -all

# gofmt -l only lists offenders; fail the target (and CI) when the
# list is non-empty.
lint:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi
	$(GO) vet ./... ./tools/...

clean:
	$(GO) clean ./...
