#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload mcast-open --seed 1 --seconds 20 --trace 0
#
# Everything the build and the runs write stays under the build
# directory ($CARGO_TARGET_DIR when set, else .bench_build).
set -euo pipefail
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp TMPDIR=$build/tmp
export XDG_CONFIG_HOME=$build/config GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --workdir "$build/work" "$@"
