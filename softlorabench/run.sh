#!/bin/sh
# Builds the SoftLoRa benchmark from the sources of the checkout it is run
# from, then runs it with the given arguments. Run from the repository root:
#
#   sh softlorabench/run.sh --workload gateway-aic --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and every file a run writes stay under
# .bench_build in the checkout.
set -eu
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
go -C softlorabench build -o "$out/softlorabench" . >&2
exec "$out/softlorabench" "$@"
