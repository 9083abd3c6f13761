#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from anywhere:
#
#   bash perfbench/run.sh --workload fig4-seq --seed 1 --seconds 20 --trace 0
#
# Every build artifact, Go cache and scratch file stays under
# .bench_build/ at the repository root, so a run reads and writes
# nothing outside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" PPROF_TMPDIR="$out/gotmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
