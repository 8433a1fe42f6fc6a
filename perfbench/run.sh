#!/usr/bin/env bash
# Builds farosd and the load generator from the checkout this script sits
# in, then runs one benchmark workload. Run it from the repository root:
#
#	bash perfbench/run.sh --workload cold_detect --seed 1 --seconds 40 --trace 0
#
# Everything it builds or writes goes under .bench_build/ in the current
# directory (the Go build cache included), so repeated runs reuse it.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0

go build -o "$out/farosd" ./cmd/farosd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" -farosd "$out/farosd" "$@"
