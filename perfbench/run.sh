#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it. Run it
# from the root of the checkout; all arguments go to the benchmark:
#
#   bash perfbench/run.sh --workload api-calls --seed 1 --seconds 20 --trace 0
#
# The build cache, the binary, sockets and span files stay under
# .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
