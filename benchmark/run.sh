#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything the build and the run leave behind stays under .bench_build/
# in the checkout: the Go build cache, the binary, and the rank sockets.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
# The go command keeps its settings and telemetry counters under the user's
# configuration directory; point that into the checkout too.
export XDG_CONFIG_HOME="$build/config"
(cd "$here" && go build -o "$build/meshgnn-benchmark" .) >&2
cd "$root"
# A relative TMPDIR keeps the Unix socket paths short however deep the
# checkout sits (the kernel limits them to 108 bytes).
TMPDIR=.bench_build/tmp exec "$build/meshgnn-benchmark" "$@"
