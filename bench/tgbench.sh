#!/usr/bin/env bash
# Builds tgbench from this checkout's sources and runs it once:
#
#   bash bench/tgbench.sh --workload quarter --seed 1 --seconds 15 --trace 0
#
# Every file the build and the run write stays inside the checkout, under
# .bench_build/go: the Go build cache, temporary files, push spill journals,
# daemon WALs and trace output. The build needs the repository module one
# directory up (bench/go.mod replaces it with ../), so a copy of bench/
# without the rest of the repository fails here with a non-zero exit.
set -euo pipefail

bench=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$bench/../.bench_build/go"
mkdir -p "$out/cache" "$out/tmp" "$out/gopath" "$out/work" "$out/config"

# XDG_CONFIG_HOME keeps the go command's user config and telemetry counters
# in the checkout too.
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOCACHE="$out/cache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off

(cd "$bench" && go build -o "$out/tgbench" ./tgbench)
exec "$out/tgbench" -workdir "$out/work" "$@"
