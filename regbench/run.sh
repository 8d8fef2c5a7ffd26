#!/usr/bin/env bash
# Builds the regsim benchmark from the checkout that contains this script and
# runs it with the given arguments, e.g.
#
#   bash regbench/run.sh --workload paper-cold --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run leave behind (Go build cache, binary,
# result stores, span files, result records) stays under .bench_build/ at the
# checkout root. The build fails, and the script exits non-zero, when the
# regsim sources are not beside this directory.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
state="$root/.bench_build/regbench"
mkdir -p "$state/gocache" "$state/gotmp" "$state/gopath" "$state/xdg"
export GOCACHE="$state/gocache" GOTMPDIR="$state/gotmp" GOPATH="$state/gopath" \
  GOMODCACHE="$state/gopath/pkg/mod" XDG_CONFIG_HOME="$state/xdg" \
  XDG_CACHE_HOME="$state/xdg" GOFLAGS= GOWORK=off GOTOOLCHAIN=local \
  GOPROXY=off GOTELEMETRY=off GOENV=off
(cd "$root/regbench" && go build -o "$state/regbench" .) >&2
exec "$state/regbench" -state-dir "$state" "$@"
