#!/usr/bin/env bash
# Builds perfbench from source and runs one workload:
#
#   bash perfbench/run.sh --workload ingest --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The binary and every Go cache the build
# touches stay under $CARGO_TARGET_DIR (default .bench_build), so nothing is
# written outside the checkout.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"
(
	cd "$root/perfbench"
	env HOME="$out/home" XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath" \
		GOCACHE="$out/gocache" GOMODCACHE="$out/gopath/pkg/mod" GOTOOLCHAIN=local \
		GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off CGO_ENABLED=0 \
		go build -o "$out/perfbench" .
)
exec "$out/perfbench" "$@"
