#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it.
# Usage (from the repository root):
#   bash perfbench/run.sh --workload spec-pairs --seed 1 --seconds 25 --trace 0
# All build outputs stay under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/perfbench/go.mod" ]; then
  echo "perfbench: run from the repository root" >&2
  exit 2
fi
if [ ! -f "$root/go.mod" ]; then
  echo "perfbench: no simulator module (go.mod) at $root" >&2
  exit 2
fi

out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
(
  # The go command's caches, temporary files and user config (telemetry
  # counters included) all stay under .bench_build.
  export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
  export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOWORK=off
  cd "$root/perfbench" && go build -o "$out/perfbench" .
)
exec "$out/perfbench" -root "$root" "$@"
