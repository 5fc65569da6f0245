#!/usr/bin/env bash
# Builds wfserve and the benchmark from the checkout this is run in, then
# runs the benchmark. Run it from the repository root:
#
#	bash perfbench/run.sh --workload ingest --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run leave behind goes under .bench_build/
# in the current directory: the Go build cache, the binaries, cached
# generated traces, and the per-run data directories.
set -euo pipefail

root=$(pwd)
bench=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
mkdir -p "$out/bin" "$GOTMPDIR"

if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/wfserve" ]; then
	echo "perfbench: $root holds no wfreach source tree to build" >&2
	exit 2
fi
go build -o "$out/bin/wfserve" ./cmd/wfserve >&2
(cd "$bench" && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -wfserve "$out/bin/wfserve" -work "$out" "$@"
