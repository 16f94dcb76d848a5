#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#   bash _perfbench/run.sh --workload crawl --seed 1 --seconds 20 --trace 0
# Run from the repository root. Every build artifact and Go cache lands in
# the build directory ($CARGO_TARGET_DIR, default .bench_build) so the run
# touches nothing outside the checkout.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/tmp" "$build/config"

export GOCACHE=$build/gocache GOMODCACHE=$build/gomodcache GOPATH=$build/gopath
export GOTMPDIR=$build/tmp TMPDIR=$build/tmp XDG_CONFIG_HOME=$build/config
export GOFLAGS= GOPROXY=off GOSUMDB=off GOWORK=off GOTOOLCHAIN=local

(cd "$root/_perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
