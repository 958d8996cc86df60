#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it. Run it from the
# repository root:
#
#   bash bench/run.sh --workload sweep-reset --seed 1 --seconds 20 --trace 0
#
# Every file the build and the run produce (compiler cache, temporary
# files, the binary, span dumps) stays under .bench_build/, and the Go
# toolchain is kept off the network: the module's only dependency is
# the repository itself, through a directory replace.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off \
	GOFLAGS= GOWORK=off
go -C bench build -o "$out/xlbench" .
exec "$out/xlbench" "$@"
