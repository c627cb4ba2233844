GO ?= go

.PHONY: all build test race bench perf perf-compare figures lint clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Host-performance microbenchmarks (see docs/PERF.md). Writes the raw
# `go test -bench` output to bench_current.txt and records it as
# BENCH_<date>[-<BENCH_TAG>].json (BENCH_TAG=pr12 names the ledger row
# after its PR). The speedup columns compare against BENCH_BASELINE, a
# previous raw output or BENCH_*.json; left empty, benchdiff picks the
# newest checked-in BENCH_*.json.
BENCH_DATE := $(shell date +%F)
BENCH_BASELINE ?=
BENCH_TAG ?=

bench:
	$(GO) test -run '^$$' -bench=. -benchmem -count=1 ./... > bench_current.txt || (cat bench_current.txt; exit 1)
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
