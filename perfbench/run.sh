#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it:
#
#   bash perfbench/run.sh --workload fleet-write --seed 1 --seconds 30 --trace 0
#
# Run from the repository root. Everything the build and the run write goes
# under .bench_build/ (or $CARGO_TARGET_DIR when set): the Go build cache,
# temporary files, the binary, the stores of the run and the span dump of
# a traced run. The module replaces trustedcells with the checkout's root,
# so the build needs no network; outside a full checkout it fails and the
# script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOFLAGS= GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOENV=off GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --workdir "$out/work" "$@"
