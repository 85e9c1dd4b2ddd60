#!/usr/bin/env bash
# Builds triclustd and the benchmark driver from this checkout, then runs
# the driver with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload ingest-wide --seed 1 --seconds 15 --trace 0
#   bash perfbench/run.sh --workload all --seed 1 --seconds 15 --trace 1
#
# Run it from the root of the repository. Everything it builds or writes
# stays under $CARGO_TARGET_DIR (default .bench_build) in that root.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/triclustd" || ! -f "$root/perfbench/go.mod" ]]; then
  echo "perfbench: run from the repository root (go.mod, cmd/triclustd and perfbench/ are needed)" >&2
  exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
[[ $out == /* ]] || out="$root/$out"
mkdir -p "$out/gocache" "$out/tmp" "$out/perfbench"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go build -o "$out/triclustd" ./cmd/triclustd
(cd "$root/perfbench" && go build -o "$out/perfbench-driver" .)
exec "$out/perfbench-driver" -daemon "$out/triclustd" -work "$out/perfbench" "$@"
