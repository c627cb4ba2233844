#!/usr/bin/env bash
# The benchmark's one command. It builds the harness (benchmarks/perf)
# once into benchmarks/out and runs it:
#
#   benchmarks/run.sh                       all six workloads, one process each, one after
#                                           another -> benchmarks/out/result.json + the table;
#                                           exits non-zero if any output fails its oracle
#   benchmarks/run.sh -reps 10 -seed 3      the same with ten end-to-end runs per workload
#   benchmarks/run.sh --workload W --seed N --seconds S --trace 0|1
#                                           one run (the driver's protocol): the last line
#                                           of standard output is the JSON result
#   benchmarks/run.sh -compare A.json B.json
#   benchmarks/run.sh -manifest             print BENCHMARK.json
#
# Everything it writes, the Go build cache included, stays under
# benchmarks/out. See benchmarks/README.md.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$here/out"
mkdir -p "$out"

# Keep everything the go command writes inside the checkout: build cache,
# module cache and its own config/telemetry directory. Never fetch a toolchain.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOFLAGS=-modcacherw

(cd "$here" && go build -o "$out/perf" ./perf)

for arg in "$@"; do
	case "$arg" in
	-workload | --workload | -compare | --compare | -manifest | --manifest)
		exec "$out/perf" -out "$out" "$@"
		;;
	esac
done

commit="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)"
exec "$out/perf" -out "$out" -all -commit "$commit" "$@"
