#!/usr/bin/env bash
# Builds wmbench from source and runs it with the given arguments:
#
#   bash benchmark/run.sh --workload suite-sim --seed 1 --seconds 20 --trace 0
#
# Run it from the root of a checkout.  The binary, the Go build cache, the
# compiler's temporary files and the go command's own configuration
# (XDG_CONFIG_HOME, where it keeps telemetry) all stay in .bench_build.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false
go -C "$root/benchmark" build -o "$build/wmbench" ./cmd/wmbench
exec "$build/wmbench" "$@"
