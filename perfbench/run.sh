#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from and
# runs it with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload live-join --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
if [[ ! -f go.mod || ! -d pivot || ! -d internal ]]; then
	echo "perfbench: run from the repository root (go.mod, pivot/ and internal/ not found)" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
# XDG_CONFIG_HOME keeps the go command's config and telemetry counters in
# the checkout too.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" "$@"
