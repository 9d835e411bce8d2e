#!/usr/bin/env bash
# Builds the routebench benchmark from this checkout's source and runs it
# with the given arguments. Run it from the repository root:
#
#   bash routebench/run.sh --workload reproduce --seed 1 --seconds 25 --trace 0
#
# Every build product and Go cache goes under $CARGO_TARGET_DIR (default
# .bench_build) inside the checkout; nothing is written outside it.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac

export GOCACHE=$out/gocache
export GOPATH=$out/gopath
export GOMODCACHE=$out/gopath/pkg/mod
export XDG_CONFIG_HOME=$out/config
export GOTMPDIR=$out/tmp
export TMPDIR=$out/tmp
export GOTOOLCHAIN=local
export GOFLAGS=-mod=mod
export CGO_ENABLED=0

mkdir -p "$out/tmp"
# A failed build (for instance outside a full checkout, where the
# module the benchmark imports is missing) exits non-zero before any
# result is printed.
(cd "$here" && go build -o "$out/routebench" .)
exec "$out/routebench" -root "$root" "$@"
