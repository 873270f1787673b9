#!/usr/bin/env bash
# Builds the served-path benchmark from the checkout's sources and runs
# it with the given arguments. Every build artefact (binary, Go build
# cache, temporary files, the go command's own config and telemetry)
# stays under .bench_build/ in the checkout.
#
#   bash perfbench/run.sh --workload fresh-mix --seed 1 --seconds 30 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/go-cache" "$build/go-tmp" "$build/gopath" "$build/config"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/go-tmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" "$@"
