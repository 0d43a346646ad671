#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs one workload:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run from the repository root. Everything it builds or writes stays under
# .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
# HOME and GOPATH point into the checkout too, so the go command keeps
# its environment, telemetry and module files there.
(cd "$root/perfbench" && HOME="$out/home" GOPATH="$out/gopath" GOCACHE="$out/gocache" \
	GOTOOLCHAIN=local GOPROXY=off go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -out "$out/perfbench-out" "$@"
