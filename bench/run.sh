#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ and runs it with the
# given arguments. Run from the repository root; every file the build and
# the run write stays under .bench_build/.
set -euo pipefail

if [[ ! -f bench/go.mod ]]; then
	echo "bench/run.sh: run from the repository root" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS=
go -C bench build -o "$out/closurex-bench" .
exec "$out/closurex-bench" "$@"
