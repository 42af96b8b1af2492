#!/usr/bin/env bash
# Builds coscale-loadgen from this checkout's sources and runs it with the
# given arguments. Run it from the repository root, for example:
#
#   bash cmd/coscale-loadgen/run.sh --workload serve-closed --seed 1 --seconds 20 --trace 0
#   bash cmd/coscale-loadgen/run.sh -all -seed 1 -out results
#
# The binary, the Go build cache and every scratch file stay under
# .bench_build/ (or $CARGO_TARGET_DIR when set) inside the checkout. The
# build fails, and nothing runs, outside a full checkout of the module.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
    XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

# The library's tests, the smoke test included, run before the first build
# in a checkout: the root module's `go test ./...` does not reach them.
if [ ! -x "$build/coscale-loadgen" ]; then
    go -C internal/loadgen test ./... >&2
fi
go -C cmd/coscale-loadgen build -o "$build/coscale-loadgen" .
exec "$build/coscale-loadgen" "$@"
