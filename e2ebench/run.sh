#!/usr/bin/env bash
# Builds the end-to-end benchmark from source inside the checkout and
# runs it with the given arguments:
#
#   bash e2ebench/run.sh --workload push_churn --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (compiler cache, binary, temporary WAL
# directories) stays under .bench_build/ at the checkout root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off
(cd "$root/e2ebench" && go build -buildvcs=false -o "$out/e2ebench" .) >&2
cd "$root"
exec "$out/e2ebench" -work "$out" "$@"
