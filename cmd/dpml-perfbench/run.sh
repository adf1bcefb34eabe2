#!/usr/bin/env bash
# Builds dpml-perfbench from source and runs it with the given arguments.
# Run it from the repository root: the build cache, temporary files and
# the binary all go under .bench_build/ there, so nothing is written
# outside the checkout. A directory without the simulator's go.mod two
# levels up fails the build, and the script exits non-zero.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
# XDG_CONFIG_HOME keeps the go command's env file and telemetry counters
# inside the checkout too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local

(cd "$here" && go build -o "$out/dpml-perfbench" .)
exec "$out/dpml-perfbench" "$@"
