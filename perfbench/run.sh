#!/usr/bin/env bash
# Builds the layer-ledger benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload batch_highreuse --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write (Go build cache, binary, temp files,
# snapshot directories, span JSON) stays under $CARGO_TARGET_DIR, or
# .bench_build when that is unset, at the root of the checkout.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/tmp"
# GOPATH and XDG_CONFIG_HOME keep the module cache and the go command's
# telemetry counters inside the checkout too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
  GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOWORK=off GOTOOLCHAIN=local GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" -out "$out" "$@"
