#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it with the arguments given:
#
#   bash benchmark/run.sh --workload bank-sched --seed 42 --seconds 15 --trace 0
#   bash benchmark/run.sh                 # every workload, full report
#   bash benchmark/run.sh -list           # print the manifest
#
# Everything the build writes (compiler cache included) stays inside the
# checkout, and nothing is fetched.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/bin"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local

go build -C benchmark -o "$build/bin/benchmark" . >&2
# The layer probes import objectbase/internal. If an internal API moved
# and they no longer build, the end-to-end benchmark still runs and the
# probe metrics are reported absent.
if ! go build -C benchmark -o "$build/bin/layers" ./layers >&2; then
	echo "benchmark: warning: benchmark/layers does not build; its per-layer metrics will be absent" >&2
	rm -f "$build/bin/layers"
fi
exec "$build/bin/benchmark" "$@"
