#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#
#   bash benchmark/run.sh --workload fig5-sweep --seed 1 --seconds 30 --trace 0
#   bash benchmark/run.sh compare parent.log change.log
#
# Everything the build and the runs write stays under the build directory
# ($CARGO_TARGET_DIR, default .bench_build): Go's build cache, the
# binary, and each run's scratch caches.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/home" "$build/tmp"

# Keep the Go toolchain's caches, config, telemetry and temporary files
# inside the build directory, and never let it reach for the network.
export HOME=$build/home XDG_CONFIG_HOME=$build/home/.config XDG_CACHE_HOME=$build/home/.cache
export TMPDIR=$build/tmp GOTMPDIR=$build/tmp
export GOCACHE=$build/gocache GOPATH=$build/gopath GOENV=off GOFLAGS= GOWORK=off
export GOTOOLCHAIN=local GOPROXY=off GONOSUMDB= GOSUMDB=off CGO_ENABLED=0

(cd "$here" && go build -o "$build/greenenvy-benchmark" .) >&2
export CARGO_TARGET_DIR=$build
exec "$build/greenenvy-benchmark" "$@"
