#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the checkout root
# and replaces this shell with it, so the process the caller started is the
# benchmark itself: no wrapper survives a kill, nothing is left running.
# Everything the build reads or writes stays inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/config/go/telemetry" "$out/tmp"
# With telemetry in its default local mode the go command may start a
# detached child that outlives the build.
echo off >"$out/config/go/telemetry/mode"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" GOTMPDIR="$out/tmp"
(cd "$root/bench" && go build -o "$out/bench" .)
cd "$root"
exec "$out/bench" "$@"
