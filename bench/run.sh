#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags. Run
# it from the repository root:
#
#   bash bench/run.sh --workload accel-finegrain --seed 1 --seconds 15 --trace 0
#
# Every build product stays under .bench_build/ in the current directory,
# and no module is fetched: the benchmark imports only the standard
# library and this repository.
set -euo pipefail
out="$PWD/.bench_build"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
mkdir -p "$GOTMPDIR"
go -C bench build -o "$out/bench" .
# Run as a child of this small shell, not through exec: the kernel
# carries the pre-exec peak RSS over an exec, which would fold the
# caller's memory into peak_rss_mb.
"$out/bench" "$@"
