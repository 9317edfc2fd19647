#!/usr/bin/env bash
# Builds the system under test (cmd/admitd, cmd/experiments) and the
# benchmark itself from source into .bench_build/, then runs the benchmark with
# the given arguments. Run it from the repository root:
#
#   bash benchmark/run.sh --workload churn-acceptance --seed 1 --seconds 40 --trace 0
#
# Every build artefact, cache and scratch file stays under .bench_build/.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/admitd ] || [ ! -d cmd/experiments ]; then
    echo "benchmark: run from the repository root (needs go.mod, cmd/admitd, cmd/experiments)" >&2
    exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config"
# Keep the go command's caches, temporary files and per-user state (its
# telemetry counters live under the user config directory) in the checkout.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
    XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=

go build -o "$out/admitd" ./cmd/admitd
go build -o "$out/experiments" ./cmd/experiments
go build -C benchmark -o "$out/benchmark" .

exec "$out/benchmark" -bin "$out" -work "$out/work" "$@"
