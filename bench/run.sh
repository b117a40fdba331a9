#!/usr/bin/env bash
# Builds the benchmark from source and runs it; arguments go to the
# binary. Run from the root of a checkout: bash bench/run.sh --workload
# sim_serial --seed 7 --seconds 10 --trace 0
#
# Everything the build writes stays inside the checkout: the binary and
# the Go build cache live under .bench_build/.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
root=$PWD
if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "bench/run.sh: $root is not a checkout of the repository (no go.mod, no internal/): nothing to measure" >&2
	exit 3
fi
mkdir -p .bench_build
export GOCACHE="$root/.bench_build/gocache" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off
(cd bench && go build -o "$root/.bench_build/clicbench" .)
exec "$root/.bench_build/clicbench" "$@"
