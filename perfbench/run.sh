#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument is passed
# on. Run from the repository root:
#
#   bash perfbench/run.sh --workload all --seed 1 --seconds 16 --trace 0
#
# Build outputs, the Go build cache and traced-run files go under
# $CARGO_TARGET_DIR (default .bench_build), inside the checkout.
set -euo pipefail
root="$(pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/gocache" "$build/tmp" "$build/gopath" "$build/config"
# XDG_CONFIG_HOME keeps the go command's telemetry counters in the checkout.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTELEMETRY=off GOENV=off GOFLAGS= \
	GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOSUMDB=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" --out "$build/out" "$@"
