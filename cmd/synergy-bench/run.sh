#!/usr/bin/env bash
# Builds synergy-bench from the sources of this checkout and runs it with
# the given arguments. Run it from the root of the checkout:
#
#   bash cmd/synergy-bench/run.sh --workload advise-features --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and every file the build or the run
# writes stay under .bench_build/ in the checkout.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C cmd/synergy-bench build -o "$out/synergy-bench" .
exec "$out/synergy-bench" "$@"
