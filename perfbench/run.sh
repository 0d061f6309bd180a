#!/usr/bin/env bash
# Builds isampd, isampfleet and the benchmark from this checkout, then
# runs the benchmark with the given arguments. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload soak-mix --seed 1 --seconds 10 --trace 0
#
# Everything the build and the runs write stays under .bench_build/.
set -euo pipefail
if [[ ! -f go.mod || ! -d cmd/isampd || ! -d cmd/isampfleet || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/isampd and cmd/isampfleet not found)" >&2
	exit 2
fi
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp" "$out/home" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOPATH="$out/gopath" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home" GOTOOLCHAIN=local GOFLAGS= GOENV=off CGO_ENABLED=0
go build -o "$out/bin/" ./cmd/isampd ./cmd/isampfleet
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -bin "$out/bin" -out "$out/out" "$@"
