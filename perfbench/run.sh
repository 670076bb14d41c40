#!/usr/bin/env bash
# Builds the repository's binaries and the benchmark program from source,
# then runs it with the given arguments. Run it from the root of
# a checkout:
#
#   bash perfbench/run.sh --workload sweep --seed 1 --seconds 40 --trace 0
#   bash perfbench/run.sh compare A.json B.json
#
# Every build artifact, Go cache and result file stays under .bench_build
# in the checkout. Build output goes to standard error, so the last line
# of standard output is the result.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -d cmd || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a repository checkout" >&2
	exit 2
fi

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export XDG_CACHE_HOME="$build/cache"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOPROXY=off
export GOTOOLCHAIN=local
export GOFLAGS=
export GOWORK=off

go build -o "$build/bin/" ./cmd/beebsbench ./cmd/flashramd >&2
(cd perfbench && go build -o "$build/bin/perfbench" .) >&2

exec "$build/bin/perfbench" -bin "$build/bin" -out "$build/results" "$@"
