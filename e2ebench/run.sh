#!/usr/bin/env bash
# Builds the end-to-end benchmark from the sources of this checkout and runs
# it with the given arguments. Run from the root of the checkout:
#
#   bash e2ebench/run.sh --workload global --seed 1 --seconds 20 --trace 0
#   bash e2ebench/run.sh steady --workload local --runs 5
#   bash e2ebench/run.sh reference
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" ]]; then
	echo "e2ebench: run from the root of a skewvar checkout" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config" "$build/modcache"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOMODCACHE="$build/modcache" GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go build -C "$root/e2ebench" -o "$build/e2ebench" .
exec "$build/e2ebench" "$@"
