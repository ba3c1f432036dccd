#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments. Run it from the repository root, for example:
#
#   bash perfbench/run.sh --workload paper-fig7 --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache and the per-round result caches all go
# to .bench_build in the current directory, so nothing is written outside
# the checkout.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build=$PWD/.bench_build
mkdir -p "$build"
export GOCACHE=$build/gocache GOMODCACHE=$build/gomod GOPATH=$build/gopath \
	XDG_CONFIG_HOME=$build/config GOWORK=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
# Build with the profile sitm-bench ships with, so the benchmark measures
# the code users run.
pgo=off
if [[ -f $here/../cmd/sitm-bench/default.pgo ]]; then
	pgo=$here/../cmd/sitm-bench/default.pgo
fi
(cd "$here" && go build -pgo="$pgo" -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
