#!/usr/bin/env bash
# Builds the perfbench program from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload sweep-fresh --seed 0 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# root of the checkout (Go build cache included). See perfbench/README.md.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod" HOME="$out/home" XDG_CONFIG_HOME="$out/home"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOTELEMETRY=off

(cd "$here" && go build -o "$out/perfbench" .) >&2

cd "$root"
exec "$out/perfbench" "$@"
