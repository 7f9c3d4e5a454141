#!/usr/bin/env bash
# run.sh builds the end-to-end benchmark from source and runs it with
# the arguments given, from the root of a checkout:
#
#	bash perfbench/run.sh --workload site-ingest --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, binary,
# scratch logs, result records, trace spans) stays under .bench_build/
# in the checkout.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
build="${root}/.bench_build"
mkdir -p "${build}/gocache" "${build}/gomodcache" "${build}/tmp" "${build}/home"
export GOCACHE="${build}/gocache" GOMODCACHE="${build}/gomodcache" GOPATH="${build}/gopath"
export GOTMPDIR="${build}/tmp" TMPDIR="${build}/tmp" HOME="${build}/home" XDG_CONFIG_HOME="${build}/home"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off
cd "${root}/perfbench"
go build -o "${build}/bin/perfbench" .
cd "${root}"
exec "${build}/bin/perfbench" "$@"
