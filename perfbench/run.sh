#!/usr/bin/env bash
# Builds perfbench from this checkout and runs it with the given arguments,
# e.g. `bash perfbench/run.sh --workload fb-day --seed 1 --seconds 25 --trace 0`.
# The build cache, the binary and the traced run's spans go to .bench_build/
# at the module root, so nothing is read or written outside the checkout
# but the Go toolchain itself.
set -euo pipefail
cd "$(dirname "$0")/.."
if [[ ! -f go.mod || ! -d internal ]]; then
	echo "perfbench: $(pwd) is not a checkout of the hybridmr module" >&2
	exit 2
fi
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOFLAGS=
go build -o "$out/perfbench" ./perfbench
exec "$out/perfbench" "$@"
