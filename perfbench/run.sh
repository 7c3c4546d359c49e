#!/usr/bin/env bash
# Builds the perfbench driver from source and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload repeat-long --seed 42 --seconds 10 --trace 0
#
# Every build and run artefact (Go build cache, binary, checkpoint
# directories, span dumps) stays under $CARGO_TARGET_DIR, default
# .bench_build, inside the checkout.
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/goconfig"

# The driver is its own module that replaces rhmd with the checkout it
# sits in; nothing is fetched, so the build fails fast (and prints no
# result) when the rest of the repository is absent.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" XDG_CONFIG_HOME="$out/goconfig"
export GOPATH="$out/gopath" GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local
go -C "$root/perfbench" build -o "$out/perfbench" .

exec "$out/perfbench" --out "$out" "$@"
