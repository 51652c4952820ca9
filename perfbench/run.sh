#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments, for example:
#
#   bash perfbench/run.sh --workload read-hot --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the checkout. Every build and run artefact,
# the Go build cache included, stays under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
	TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" HOME="$out" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOENV=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
