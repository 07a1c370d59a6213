#!/usr/bin/env bash
# Builds nqbench from this checkout's sources and runs it, passing every
# argument through, e.g.
#
#   bash bench/run.sh --workload catalog-small --seed 1 --seconds 20 --trace 0
#
# The build cache, Go's config and temp files, and the binary all live in
# .bench_build/ at the repository root, so a run reads and writes only
# inside the checkout (traced runs also write bench/out/). The first run
# compiles the standard library into that cache; later runs reuse it.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/cache" "$build/tmp" "$build/config"
export GOCACHE="$build/cache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
# Offline and self-contained: the local toolchain, no module downloads, no
# workspace or flags inherited from the environment.
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

cd "$root/bench"
go build -o "$build/nqbench" ./cmd/nqbench
exec "$build/nqbench" "$@"
