#!/usr/bin/env bash
# Builds the benchmark and the lbserver/lbworker binaries from this
# checkout into .bench_build/, then runs the benchmark with the given
# arguments, e.g.
#
#   bash perfbench/run.sh --workload service --seed 3 --seconds 20 --trace 0
#
# Everything it writes (Go build cache, binaries, cache directories, logs,
# span files) stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOFLAGS=

(cd "$root" && go build -o "$out/bin/lbserver" ./cmd/lbserver && go build -o "$out/bin/lbworker" ./cmd/lbworker) >&2
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" --root "$root" "$@"
