#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it:
#   bash perfbench/run.sh --workload flow|verify|daemon --seed N --seconds S --trace 0|1
# Run it from the repository root. Every file the build and the run
# write goes under .bench_build/ in that directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config"
# Keep the Go toolchain's caches, config and scratch files inside the
# checkout, and never reach for the network: the benchmark has no
# dependency outside the standard library and the repository.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
