#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run it from the root of the repository. Build outputs, the Go build
# cache, the Go tool's own config files, the diskstore probe's data and
# the traced runs' spans all stay under $CARGO_TARGET_DIR (default
# .bench_build), inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
work="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$work"
work="$(cd "$work" && pwd)"
export GOCACHE="$work/gocache" GOTMPDIR="$work/gotmp" GOPATH="$work/gopath"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off GOENV=off
export XDG_CONFIG_HOME="$work/config"
mkdir -p "$GOTMPDIR" "$XDG_CONFIG_HOME"
(cd "$here" && go build -o "$work/perfbench" .)
exec "$work/perfbench" "$@"
